"""Entanglement swapping with photon-number-encoded qubits over lossy channels.

The package simulates the protocol two independent ways (closed forms
and a brute-force dilation pipeline), quantifies the heralded
entanglement, and emulates the coincidence-count experiment with Poisson
statistics. See the README for the CLI and the sweep recipes.
"""

__version__ = "0.1.0"

from . import config, experiment, loss, metrics, protocol, states
from .states import *  # noqa: F401,F403  (each module's __all__ is its public surface)
from .loss import *  # noqa: F401,F403
from .protocol import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403
from .experiment import *  # noqa: F401,F403
from .config import *  # noqa: F401,F403

__all__ = ["__version__"] + [
    name for module in (states, loss, protocol, metrics, experiment, config)
    for name in module.__all__
]
