"""Front-end parsing, report emission, and the exit-code taxonomy."""

import csv
import hashlib
import json
import re

import pytest

from pillowtiled import cli, cocycle, orbit
from pillowtiled.cli import RunConfig, main
from pillowtiled.formats import (
    ParseError,
    iter_input_lines,
    json_ready,
    parse_cyclic_line,
    parse_locus_line,
    parse_origami_line,
    parse_pillow_line,
    parse_surface_line,
)
from pillowtiled.lyapunov import DegeneracyCertificate
from pillowtiled.permsurf import Origami, PillowCover
from pillowtiled.permutations import parse_cycles


FAMILY = "5 1 2 2 5"
CONTROL = "2 1 1 1 1"


def write(tmp_path, name, content):
    p = tmp_path / name
    p.write_text(content)
    return str(p)


class TestFormats:
    def test_pillow_round_trip(self):
        line = "5; (1 2 3 4 5); (1 3 5 2 4); (1 3 5 2 4); ()"
        cover = parse_pillow_line(line)
        assert cover.d == 5
        assert parse_pillow_line(str(cover)) == cover

    def test_origami_round_trip(self):
        o = Origami(3, parse_cycles("(1 2 3)", 3), parse_cycles("(1 2)", 3))
        assert parse_origami_line(str(o)) == o

    def test_cyclic_line(self):
        s = parse_cyclic_line(FAMILY)
        assert (s.N, s.a) == (5, (1, 2, 2, 5))

    def test_locus_line_with_empty_orders(self):
        L = parse_locus_line("; 4; 3; (1 2 3); (1 2 3); (1 2 3)")
        assert L.m == () and L.k == 4 and L.degree == 3

    def test_surface_dispatch(self):
        assert isinstance(parse_surface_line(FAMILY).N, int)
        cover = parse_surface_line("5; (1 2 3 4 5); (1 3 5 2 4); (1 3 5 2 4); ()")
        assert isinstance(cover, PillowCover)

    @pytest.mark.parametrize(
        "line",
        [
            "not numbers",
            "5 1 2 2",  # four ints only
            "0 1 1 1 1",  # bad N
            "3; (1 2 3)",  # wrong field count
            "x; (1 2); (1 2)",  # bad degree
            "3; (1 2 9); (1 2)",  # symbol out of range
        ],
    )
    def test_bad_lines_raise_parse_error(self, line):
        with pytest.raises(ParseError):
            parse_surface_line(line) if ";" not in line else parse_origami_line(line)

    def test_iter_input_lines_skips_comments(self):
        text = "# header\n\n5 1 2 2 5  # family\n   \n2 1 1 1 1\n"
        assert [line for _, line in iter_input_lines(text)] == [FAMILY, CONTROL]

    def test_json_ready_fractions_and_complex(self):
        from fractions import Fraction

        assert json_ready(Fraction(3, 8)) == "3/8"
        assert json_ready(Fraction(0, 1)) == "0/1"
        assert json_ready(1.5 - 2j) == [1.5, -2.0]
        assert json_ready({"a": (Fraction(1, 2),)}) == {"a": ["1/2"]}


class TestRunConfig:
    def test_rejects_bad_epsilon(self):
        for eps in (0.0, 0.1, -0.01, 0.5):
            with pytest.raises(ValueError):
                RunConfig("certify", "x", epsilon=eps)

    def test_rejects_bad_numbers(self):
        with pytest.raises(ValueError):
            RunConfig("certify", "x", steps=0)
        with pytest.raises(ValueError):
            RunConfig("certify", "x", orbit_cap=-1)
        with pytest.raises(ValueError):
            RunConfig("certify", "x", seeds=())

    def test_rejects_unknown_command_and_format(self):
        with pytest.raises(ValueError):
            RunConfig("fly", "x")
        with pytest.raises(ValueError):
            RunConfig("certify", "x", format="xml")

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_parser_defaults_are_the_config_defaults(self, monkeypatch, command):
        seen = []
        monkeypatch.setattr(cli, "run", lambda config: seen.append(config) or 0)
        assert main([command, "in.txt"]) == 0
        assert seen == [RunConfig(command, "in.txt")]


# a value each flag accepts, other than its default
FLAG_VALUES = {
    "--steps": "100", "--seeds": "1,2,3", "--epsilon": "0.01", "--orbit-cap": "50",
    "--out": "o.json", "--format": "csv", "--trace": "t.csv",
}


class TestFlags:
    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_a_subcommand_takes_only_its_own_flags(self, monkeypatch, capsys, command):
        seen = []
        monkeypatch.setattr(cli, "run", lambda config: seen.append(config) or 0)
        own = cli._COMMANDS[command][2]
        assert set(own) <= set(FLAG_VALUES)
        for flag, value in FLAG_VALUES.items():
            if flag in own:
                assert main([command, "in.txt", flag, value]) == 0
                assert seen.pop() != RunConfig(command, "in.txt")
            else:
                with pytest.raises(SystemExit) as exc:
                    main([command, "in.txt", flag, value])
                assert exc.value.code == 2
                assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert seen == []

    @pytest.mark.parametrize(
        "argv",
        [["construct", "--epsilon", "0.5"], ["ekz", "--steps", "0"],
         ["certify", "--trace", "x.csv"], ["bform", "--seeds", "1"]],
        ids=["construct-epsilon", "ekz-steps", "certify-trace", "bform-seeds"],
    )
    def test_an_unread_flag_is_a_usage_error(self, tmp_path, capsys, argv):
        path = write(tmp_path, "in.txt", FAMILY + "\n")
        command, flag, value = argv
        with pytest.raises(SystemExit) as exc:
            main([command, path, flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: pillowtiled {command}")
        assert f"unrecognized arguments: {flag} {value}" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_help_lists_exactly_the_own_flags(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
        assert listed == {"--help", *cli._COMMANDS[command][2]}


class TestSubcommands:
    def test_construct_family(self, tmp_path, capsys):
        path = write(tmp_path, "in.txt", FAMILY + "\n")
        assert main(["construct", path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["genus"] == 2
        assert data[0]["n"] == 5
        assert data[0]["stratum"]["label"] == "Q(3^3, -1^5)"

    def test_ekz_reports_exact_zero(self, tmp_path, capsys):
        path = write(tmp_path, "in.txt", "3 1 1 1 3\n")
        assert main(["ekz", path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["lyap_sum"] == "0/1"
        assert data[0]["decomposition"] == ["0/1", "1/1", "2/1"]

    def test_certify_family_passes(self, tmp_path, capsys):
        path = write(tmp_path, "in.txt", FAMILY + "\n")
        rc = main(["certify", path, "--steps", "2000", "--seeds", "1,2,3"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["verdict"] == "PASS"
        assert data[0]["criterion"] is True
        assert data[0]["exact_sum"] == "0/1"

    def test_certify_control_fails_cleanly(self, tmp_path, capsys):
        path = write(tmp_path, "in.txt", CONTROL + "\n")
        rc = main(["certify", path, "--steps", "2000", "--seeds", "1,2,3"])
        assert rc == 0  # consistent channels, verdict FAIL
        data = json.loads(capsys.readouterr().out)
        assert data[0]["verdict"] == "FAIL"
        assert data[0]["contradiction"] is False

    def test_contradiction_exits_four(self, tmp_path, capsys, monkeypatch):
        fake = DegeneracyCertificate(
            epsilon=0.02,
            steps=10,
            seeds=(1, 2, 3),
            estimates=(),
            max_lambda_plus=0.5,
            measured_degenerate=False,
            exact_sum=None,
            exact_degenerate=None,
            criterion_degenerate=True,
            verdict="FAILED",
            contradiction=True,
            report="channels disagree",
        )
        monkeypatch.setattr(cli, "certify_degenerate", lambda *a, **k: fake)
        path = write(tmp_path, "in.txt", FAMILY + "\n")
        assert main(["certify", path, "--steps", "100"]) == 4

    # A known defect, kept visible until it is mended (ROADMAP item 1): a run
    # too short to trust is reported as a contradiction between channels.
    # 7 1 1 5 7 is degenerate by the sum rule and the criterion; at 40 steps
    # every seed warns, and the Monte-Carlo max lambda+ of 0.038 against
    # epsilon 0.02 makes the line exit 4.
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="a fully warned short run is reported as a contradiction")
    def test_fully_warned_short_run_is_no_contradiction(self, tmp_path, capsys):
        path = write(tmp_path, "in.txt", "7 1 1 5 7\n")
        rc = main(["certify", path, "--steps", "40", "--seeds", "1,2,3"])
        data = json.loads(capsys.readouterr().out)[0]
        if not all(data["warnings"]):
            # not an AssertionError, so it fails the test outright
            pytest.fail("not every seed warns on this line; it no longer shows the defect")
        assert data["contradiction"] is False
        assert rc != 4

    def test_orbit_origami_and_cap(self, tmp_path, capsys):
        path = write(tmp_path, "in.txt", "3; (1 2 3); (1 2)\n")
        assert main(["orbit", path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["size"] == 3
        assert all(gen in ("S", "T") for _, gen, _ in data[0]["edges"])
        assert main(["orbit", path, "--orbit-cap", "1"]) == 3

    def test_orbit_accepts_pillow_lines(self, tmp_path, capsys):
        path = write(
            tmp_path, "in.txt", "5; (1 2 3 4 5); (1 3 5 2 4); (1 3 5 2 4); ()\n"
        )
        assert main(["orbit", path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["d"] == 20  # four double-cover squares per sheet
        assert data[0]["size"] >= 1

    def test_bounds_family(self, tmp_path, capsys):
        path = write(tmp_path, "in.txt", FAMILY + "\n")
        assert main(["bounds", path]) == 0
        data = json.loads(capsys.readouterr().out)
        checks = {c["name"]: c for c in data[0]["checks"]}
        assert checks["pole-count"]["pass"] and checks["pole-count"]["lhs"] == 5
        assert checks["unbranched-pole"]["pass"]

    def test_locus_metadata(self, tmp_path, capsys):
        path = write(tmp_path, "in.txt", "; 4; 3; (1 2 3); (1 2 3); (1 2 3)\n")
        assert main(["locus", path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["dim"] == 2 and data[0]["n"] == 3

    def test_genus_zero_quotients_certify_and_estimate(self, tmp_path, capsys):
        # the invariant lattice is empty, so the plus spectrum is empty
        path = write(tmp_path, "in.txt", "2 2 2 1 1\n8 1 7 8 8\n")
        rc = cli.run(RunConfig("certify", path, steps=200, seeds=(1, 2, 3)))
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert [rec["verdict"] for rec in data] == ["PASS", "PASS"]
        assert all(exps == [] for rec in data for exps in rec["exponents"])
        rc = cli.run(RunConfig("lyapunov", path, steps=200, seeds=(1, 2)))
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert all(est["lambda_plus"] == [] for rec in data for est in rec["estimates"])

    def test_prime_family_beyond_five_certifies(self, tmp_path, capsys):
        path = write(tmp_path, "in.txt", "7 1 3 3 7\n11 1 5 5 11\n")
        rc = cli.run(RunConfig("certify", path, steps=300, seeds=(1, 2, 3)))
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert [rec["verdict"] for rec in data] == ["PASS", "PASS"]
        assert [rec["exact_sum"] for rec in data] == ["0/1", "0/1"]
        assert all(len(rec["warnings"]) == 3 for rec in data)

    def test_lyapunov_trace_and_out(self, tmp_path):
        path = write(tmp_path, "in.txt", FAMILY + "\n")
        out = tmp_path / "report.json"
        trace = tmp_path / "trace.csv"
        rc = main(
            ["lyapunov", path, "--steps", "1000", "--seeds", "7",
             "--out", str(out), "--trace", str(trace)]
        )
        assert rc == 0
        data = json.loads(out.read_text())
        est = data[0]["estimates"][0]
        assert est["seed"] == 7
        assert len(est["lambda_plus"]) == 2
        with open(trace) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["line", "seed", "block", "slope"]
        assert len(rows) - 1 == est["blocks"]

    def test_bform_family_report(self, tmp_path, capsys):
        path = write(tmp_path, "in.txt", FAMILY + "\n")
        assert main(["bform", path]) == 0
        data = json.loads(capsys.readouterr().out)
        reports = data[0]["reports"]
        assert len(reports) == 2  # both disc sample points
        for rep in reports:
            assert max(rep["theta"]) < 0.02
            flat = [x for row in rep["B"] for pair in row for x in pair]
            assert max(abs(x) for x in flat) == 0.0

    def test_parse_error_exits_two(self, tmp_path):
        path = write(tmp_path, "in.txt", "júnk\n")
        assert main(["construct", path]) == 2
        assert main(["construct", str(tmp_path / "missing.txt")]) == 2

    def test_bad_epsilon_exits_two(self, tmp_path):
        path = write(tmp_path, "in.txt", FAMILY + "\n")
        assert main(["certify", path, "--epsilon", "0.5"]) == 2

    def test_repeated_certify_seeds_exit_two(self, tmp_path, capsys):
        path = write(tmp_path, "in.txt", FAMILY + "\n")
        assert main(["certify", path, "--steps", "200", "--seeds", "7,7,7"]) == 2
        assert "three distinct seeds" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--out", "--trace"])
    @pytest.mark.parametrize("bad", ["missing-dir", "directory"])
    def test_unwritable_output_exits_two(self, tmp_path, capsys, flag, bad):
        path = write(tmp_path, "in.txt", FAMILY + "\n")
        target = tmp_path / "missing" / "x.out" if bad == "missing-dir" else tmp_path
        rc = main(["lyapunov", path, "--steps", "100", "--seeds", "1", flag, str(target)])
        assert rc == 2
        assert f"cannot write {target}:" in capsys.readouterr().err

    def test_csv_format(self, tmp_path, capsys):
        path = write(tmp_path, "in.txt", "3 1 1 1 3\n5 1 2 2 5\n")
        assert main(["construct", path, "--format", "csv"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[0][0] == "spec"
        assert len(rows) == 3

    @pytest.mark.parametrize("command", ["certify", "lyapunov"])
    def test_warm_caches_give_cold_bytes(self, tmp_path, command):
        # each cover is followed by a relabelling of it, x -> 2x, which has
        # the same canonical states; the second run meets them all cached
        lines = ["5 1 2 2 5", "5 2 4 4 5", "7 1 3 3 7", "7 2 6 6 7"]
        path = write(tmp_path, "in.txt", "\n".join(lines) + "\n")
        flags = ["--steps", "200", "--seeds", "1,2,3"]

        def once(path, name):
            out = tmp_path / name
            rc = main([command, path, *flags, "--out", str(out)])
            return rc, out.read_bytes()

        cold = once(path, "cold.json")
        assert once(path, "warm.json") == cold
        records = json.loads(cold[1])
        for i, line in enumerate(lines):
            cocycle._clear_shared_cache()
            orbit._clear_memo()
            rc, alone = once(write(tmp_path, f"{i}.txt", line + "\n"), f"{i}.json")
            assert rc == 0
            assert json.loads(alone) == [records[i]]

    def test_deterministic_output(self, tmp_path):
        path = write(tmp_path, "in.txt", FAMILY + "\n")
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(
                ["lyapunov", path, "--steps", "500", "--seeds", "3",
                 "--out", str(out)]
            ) == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]


# multi-line inputs, one per subcommand, with a comment and blank lines
# between the data; the flags keep the Monte-Carlo lines short
LAYOUT_INPUTS = {
    "construct": ["3 1 1 1 3", "5 1 2 2 5", "2 1 1 1 1"],
    "ekz": ["3 1 1 1 3", "5 1 2 2 5", "6 1 1 5 5"],
    "orbit": ["3; (1 2 3); (1 2)", "5; (1 2 3 4 5); (1 3 5 2 4); (1 3 5 2 4); ()",
              "4; (1 2)(3 4); (2 3)"],
    "bounds": ["5 1 2 2 5", "2 1 1 1 1", "7 1 3 3 7"],
    "locus": ["; 4; 3; (1 2 3); (1 2 3); (1 2 3)", "1; 5; 2; (1 2); (1 2); ()"],
    "bform": ["5 1 2 2 5", "1 1 1 1 1"],
    "certify": ["5 1 2 2 5", "2 1 1 1 1"],
    "lyapunov": ["5 1 2 2 5", "2 1 1 1 1"],
}
LAYOUT_FLAGS = {"certify": dict(steps=200, seeds=(1, 2, 3)), "lyapunov": dict(steps=200, seeds=(1, 2))}

# sha256 of the output of the exact subcommands on LAYOUT_INPUTS as the
# indent-2 writer laid it out, and of their CSV, which did not change
INDENTED_SHA256 = {
    "construct": "8a7bc0ff0ae663b84c6f6ec18e55fcfe72f91f96c45d27c41277ddeb55f0b15c",
    "ekz": "4a24903c121443b63b426dfb75d2961cfcb39015548146efaa17f4f0e3b6474a",
    "orbit": "ff3882c30e33fde7f4413f2bd9fb570f409c22186986401a24b9b9aea75979b9",
    "bounds": "29241fbd0021ea9153bbe53010856fe94f00d69852970f7bc273467ac834e952",
    "locus": "e1e77e0c4dff575c0466d86c2f7f1f955a6bd80c6084908b439b61787e6c1a41",
}
CSV_SHA256 = {
    "construct": "087fe2961ca366afb07d88c94cc009931f0090dd70c214754e64c3465c3292fa",
    "ekz": "a89693d10c105d4590a99d875049e19095d47c5b0f9a34f7bb7cf66e277f2146",
    "orbit": "96ccc92541f06c5cc2dba6661ae6e565e206a14da0291fe0e17901a3954bf17c",
    "bounds": "9f440b082e963b66473499682139c2bea307213b5f04ef17f22a10449a70bdf6",
    "locus": "4e172f095e2b50beda726eb9cfa82f451a7fd824a91529c869d2da513a5cf459",
}


class TestJsonLayout:
    def run(self, tmp_path, capsys, command, lines, **kwargs):
        """(exit status, stdout, --out bytes) of one input, run both ways."""
        path = write(tmp_path, "in.txt", "# a comment\n\n" + "\n\n".join(lines) + "\n")
        config = dict(LAYOUT_FLAGS.get(command, {}), **kwargs)
        rc = cli.run(RunConfig(command, path, **config))
        stdout = capsys.readouterr().out
        out = tmp_path / "out"
        assert cli.run(RunConfig(command, path, out=str(out), **config)) == rc
        return rc, stdout, out.read_bytes()

    @pytest.mark.parametrize("command", sorted(LAYOUT_INPUTS))
    def test_record_i_is_on_line_i_plus_2(self, tmp_path, capsys, monkeypatch, command):
        handler, *rest = cli._COMMANDS[command]
        records = []

        def spy(line, config):
            record, status = handler(line, config)
            records.append(record)
            return record, status

        monkeypatch.setitem(cli._COMMANDS, command, (spy, *rest))
        lines = LAYOUT_INPUTS[command]
        rc, stdout, written = self.run(tmp_path, capsys, command, lines)
        assert rc == 0
        assert written == stdout.encode()
        out = stdout.splitlines()
        assert out[0] == "[" and out[-1] == "]" and len(out) == len(lines) + 2
        assert stdout.endswith("]\n")
        parsed = [json.loads(row.removesuffix(",")) for row in out[1:-1]]
        # the first run's records, in input order, as the indent-2 writer
        # would have written them
        records = records[: len(lines)]
        indented = json.dumps(records, indent=2, sort_keys=True)
        assert parsed == json.loads(stdout) == json.loads(indented)
        for line, record in zip(lines, parsed):
            if "input" in record:
                assert record["input"] == line
            elif "spec" in record:
                assert record["spec"] == [int(x) for x in line.split()]

    @pytest.mark.parametrize("command", sorted(INDENTED_SHA256))
    def test_the_values_are_the_indented_values(self, tmp_path, capsys, command):
        _, stdout, _ = self.run(tmp_path, capsys, command, LAYOUT_INPUTS[command])
        indented = json.dumps(json.loads(stdout), indent=2, sort_keys=True) + "\n"
        assert hashlib.sha256(indented.encode()).hexdigest() == INDENTED_SHA256[command]

    @pytest.mark.parametrize("command", sorted(CSV_SHA256))
    def test_csv_bytes_are_unchanged(self, tmp_path, capsys, command):
        _, stdout, written = self.run(tmp_path, capsys, command, LAYOUT_INPUTS[command],
                                      format="csv")
        assert written == stdout.encode()
        assert hashlib.sha256(written).hexdigest() == CSV_SHA256[command]

    @pytest.mark.parametrize("command", sorted(LAYOUT_INPUTS))
    def test_empty_input_is_an_empty_array(self, tmp_path, capsys, command):
        assert self.run(tmp_path, capsys, command, []) == (0, "[]\n", b"[]\n")

    def test_a_multi_line_string_stays_on_its_line(self, tmp_path, capsys, monkeypatch):
        fake = DegeneracyCertificate(
            epsilon=0.02, steps=10, seeds=(1, 2, 3), estimates=(), max_lambda_plus=0.0,
            measured_degenerate=True, exact_sum=None, exact_degenerate=None,
            criterion_degenerate=True, verdict="PASS", contradiction=False,
            report="first line\nsecond line",
        )
        monkeypatch.setattr(cli, "certify_degenerate", lambda *a, **k: fake)
        _, stdout, _ = self.run(tmp_path, capsys, "certify", [FAMILY, CONTROL])
        out = stdout.splitlines()
        assert len(out) == 4
        assert [json.loads(row.removesuffix(","))["report"] for row in out[1:3]] == [fake.report] * 2
