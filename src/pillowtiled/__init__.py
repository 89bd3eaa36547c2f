"""pillowtiled: pillowcase covers, their orientation double covers, and the
Kontsevich-Zorich dynamics on top of them.

The package studies half-translation surfaces tiled by unit squares that
arise as branched covers of the pillowcase orbifold.  It provides exact
combinatorial constructions (strata, double covers, SL(2,Z) orbits,
cylinder decompositions), exact rational invariants (Eskin-Kontsevich-
Zorich style sums), Monte-Carlo Lyapunov spectrum estimates, and a
numerical pairing matrix for superelliptic families, all behind a small
command line tool.
"""

__version__ = "0.1.0"

from .permsurf import (  # noqa: F401
    ConnectivityError,
    MonodromyError,
    Origami,
    PillowCover,
    Stratum,
    orientation_double_cover,
    origami_stratum,
    pillow_stratum,
)
from .coverings import (  # noqa: F401
    CyclicCoverSpec,
    LocusSpec,
    check_bounds,
    cover_report,
    cyclic_to_pillow,
    is_determinant_locus,
    locus_metadata,
)
from .bform import (  # noqa: F401
    SuperellipticCurve,
    holomorphic_basis,
    pairing_matrices,
)
from .lyapunov import (  # noqa: F401
    certify_degenerate,
    run_monte_carlo,
)
from .cylinders import ekz_for_cover, ekz_for_spec  # noqa: F401
