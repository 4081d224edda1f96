"""Exact signature-based reliability for systems with dependent components.

Structure functions are packed truth tables over component state vectors;
lifetime distributions are finite sets of rational atoms. Everything is
computed in exact rational arithmetic, so equality tests in the theorem
verifier are decidable rather than approximate.

The package exports each module's ``__all__``, in module order.
"""

from . import distribution, errors, rationals, reliability, signature, structure
from .distribution import *  # noqa: F403
from .errors import *  # noqa: F403
from .rationals import *  # noqa: F403
from .reliability import *  # noqa: F403
from .signature import *  # noqa: F403
from .structure import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *distribution.__all__,
    *errors.__all__,
    *rationals.__all__,
    *reliability.__all__,
    *signature.__all__,
    *structure.__all__,
]
