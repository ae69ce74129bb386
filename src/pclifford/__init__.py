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
  fixed-point exponent for up to 64 labels, and the exact histogram of
  exponents from a tree of shared prefixes; design loads it with its
  first potential, so importing the package does not load numpy.
"""

from .f2core import (
    AffineSolution,
    BitMatrix,
    BitVec,
    complement,
    dot,
    format_matrix,
    make_form,
    parse_matrix,
    rank_ints,
    rref_ints,
    solve_affine,
    symp_product,
)
from .strings import (
    BASES,
    MajoranaString,
    commutes,
    compose,
    format_string,
    jordan_wigner_map,
    parity_operator,
    parse_string,
    quad_lower,
    zeta_coeff,
)
from .group import (
    CliffordWord,
    OrthogonalMap,
    SymplecticMap,
    braid_action,
    decompose_orthogonal,
    format_braid_word,
    group_order,
    group_rows,
    level_bits,
    level_sizes,
    levels,
    parse_braid_word,
    reflection_product,
    sample_orthogonal,
    sample_orthogonal_random,
    sample_symplectic,
    sample_symplectic_random,
    word_orthogonal,
)
from .stabilizer import (
    IsotropicSubspace,
    Stabilizer,
    add_ancilla,
    canonical_isotropic,
    format_stabilizer,
    logical_generators,
    parse_stabilizer,
    stab_clifford,
    stabilizer_element,
    state_parity,
    transform_isotropic,
    validate_isotropic,
)
from .design import (
    FixedPointProfile,
    FramePotentialReport,
    fixed_point_profile,
    frame_potential,
    haar_frame_potential,
    orbit_decomposition,
    parity_frame_potential,
    quotient_action,
)

__version__ = "0.1.0"
