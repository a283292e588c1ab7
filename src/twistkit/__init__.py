"""Twisted free-boson numerics: partition functions, symmetry
implementations on truncated Fock spaces, and twisted thermal kernels.

Each name has one import path, through the submodule that owns it (``from
twistkit import correlation``), so ``import twistkit`` loads no submodule
and no numpy, and a scalar command such as ``twistkit partition`` imports
only the modules it uses.
"""

__version__ = "0.1.0"
