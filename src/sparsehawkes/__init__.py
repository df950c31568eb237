"""Multivariate Hawkes process modeling for large entity sets with sparse sequences.

The package exports each submodule's ``__all__``; helpers outside those lists
stay importable from their modules.
"""

from . import data_io, dense, evaluate, lazy, model, simulate, train

__version__ = "0.1.0"

# Taken before the star imports, which rebind ``train`` to the function.
__all__ = [
    *model.__all__, *dense.__all__, *lazy.__all__, *simulate.__all__, *train.__all__,
    *data_io.__all__, *evaluate.__all__, "__version__",
]

from .model import *  # noqa: E402,F403
from .dense import *  # noqa: E402,F403
from .lazy import *  # noqa: E402,F403
from .simulate import *  # noqa: E402,F403
from .train import *  # noqa: E402,F403
from .data_io import *  # noqa: E402,F403
from .evaluate import *  # noqa: E402,F403
