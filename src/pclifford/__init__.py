"""Phase-exact Majorana string algebra and parity-preserving Cliffords.

Layers, bottom up:

- _bits: private packed-int kernels (pair masks, the eta swap, row
  gather and parities, the span table of a few vectors, the
  Four-Russians matrix product, the rank-one and right-reflection row
  updates);
  other modules share helpers only through it.
- f2core: bit-packed vectors/matrices over F2, ranks, affine solves,
  the form zoo (pair form, triangular form, basis change).
- strings: signed Majorana/Pauli strings with exact i^k phases.
- dense: small numpy representations used only to cross-check.
- group: Householder reflections, braid conjugation, uniform samplers
  for the binary orthogonal and symplectic groups, decompositions.
- stabilizer: isotropic subspaces, encoder synthesis, sign characters,
  logical operators.
- design: fixed-point profiles, frame potentials, orbit counts, the
  quotient embedding.
- batch: numpy batches of the group builders, the rank and the
  fixed-point exponent for up to 64 labels; design loads it with its
  first Monte Carlo potential of at most 64 labels, so importing the
  package does not load numpy.

The package exports the __all__ lists of f2core, strings, group,
stabilizer and design, and nothing else.
"""

from .f2core import *
from .strings import *
from .group import *
from .stabilizer import *
from .design import *

__version__ = "0.1.0"
