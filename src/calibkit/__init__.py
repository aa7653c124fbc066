"""Calibrated geometry toolkit for constant-coefficient forms on R^n.

Sparse exterior algebra, named calibration families, criticality tests on
the oriented Grassmannian, multistart searches, and a pointwise Cartan
test for the induced exterior differential system.

Each module's __all__ is the one list of its public names; the package
exports their union.
"""

from . import calibrations, critical, eds, exterior, grassmann
from .exterior import *  # noqa: F401,F403
from .critical import *  # noqa: F401,F403
from .calibrations import *  # noqa: F401,F403
from .grassmann import *  # noqa: F401,F403
from .eds import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *exterior.__all__,
    *critical.__all__,
    *calibrations.__all__,
    *grassmann.__all__,
    *eds.__all__,
    "__version__",
]
