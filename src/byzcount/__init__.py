"""Byzantine-resilient network size counting on sparse small-world expanders.

The package builds d-regular multigraphs from random Hamiltonian cycles,
augments them with a small-world shortcut layer, and runs a phased
max-flooding protocol whose first successful phase index encodes log n.
A hardened variant survives Byzantine nodes by cross-checking claimed
topology during setup and verifying the provenance of every received
color against the claimed forwarding chain.

The public names are those of the submodules' ``__all__`` lists.
"""

from . import adversary, baseline, engine, graph, protocol, rng
from .adversary import *  # noqa: F401,F403
from .baseline import *  # noqa: F401,F403
from .engine import *  # noqa: F401,F403
from .graph import *  # noqa: F401,F403
from .protocol import *  # noqa: F401,F403
from .rng import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [name for module in (graph, protocol, adversary, engine, baseline, rng)
           for name in module.__all__] + ["__version__"]
