"""Transfer-operator numerics on discretized symbolic spaces.

Pressure, spectral radius, Perron eigendata, equilibrium measures,
entropy diagnostics and inverse-temperature scans for weighted
prepend-and-sum operators with locally constant potentials.
"""

from .config import check_cylinder_count, cylinder_cap, set_cylinder_cap
from .errors import ConfigError, NumericError, ResourceCapError
from .measures import (
    CylinderMeasure,
    EntropyReport,
    check_eigenmeasure,
    check_intertwine,
    check_invariance,
    equilibrium_measure,
    extend_eigenmeasure,
    extend_equilibrium,
    integral_term,
    invariance_defect,
    marginalize,
    markov_entropy_gap,
    product_measure,
    relative_entropy,
    specific_entropy,
    variational_gap,
)
from .potential import (
    Potential,
    RenewalPotential,
    RenewalTail,
    builtin_constant,
    builtin_ising,
    builtin_renewal,
    builtin_xy,
    scale,
)
from .scan import PressureCurve, pressure_curve
from .space import (
    SymbolSpace,
    finite_space,
    gauss_legendre_space,
    index_word,
    uniform_space,
    word_index,
)
from .spectral import (
    PressureEstimate,
    SpectralData,
    perron_eigendata,
    power_iterate,
    pressure_bracket,
)
from .transfer import (
    CylinderFunction,
    Lumping,
    TransferKernel,
    apply_transfer,
    brute_force_iterate,
    build_kernel,
    iterate_one,
    lumpable_partition,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "CylinderFunction",
    "CylinderMeasure",
    "EntropyReport",
    "Lumping",
    "NumericError",
    "Potential",
    "PressureCurve",
    "PressureEstimate",
    "RenewalPotential",
    "RenewalTail",
    "ResourceCapError",
    "SpectralData",
    "SymbolSpace",
    "TransferKernel",
    "apply_transfer",
    "brute_force_iterate",
    "build_kernel",
    "builtin_constant",
    "builtin_ising",
    "builtin_renewal",
    "builtin_xy",
    "check_eigenmeasure",
    "check_intertwine",
    "check_invariance",
    "check_cylinder_count",
    "cylinder_cap",
    "equilibrium_measure",
    "extend_eigenmeasure",
    "extend_equilibrium",
    "finite_space",
    "gauss_legendre_space",
    "index_word",
    "integral_term",
    "invariance_defect",
    "iterate_one",
    "lumpable_partition",
    "marginalize",
    "markov_entropy_gap",
    "perron_eigendata",
    "power_iterate",
    "pressure_bracket",
    "pressure_curve",
    "product_measure",
    "relative_entropy",
    "scale",
    "set_cylinder_cap",
    "specific_entropy",
    "uniform_space",
    "variational_gap",
    "word_index",
]
