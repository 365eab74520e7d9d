"""Exact computations with left-invariant group orderings.

Flag orderings on Z^n, orderings of free groups through nilpotent
quotients, witness algorithms for automorphism actions on ordering spaces,
and the Klein bottle group where those actions fail to be faithful.
"""

from .errors import (CapExceeded, CommonRoot, DepthCapExceeded, DepthExceedsCap,
                     DimensionMismatch, EmptyInput, EmptyWord, GroupOrderError,
                     IdentityAutomorphism, IdentityElement, InputError, IsIdentity,
                     NegativeCertificate, NoCone, NonAutomorphism, NoSeparator,
                     NotFoundWithinBall, ParseError, RankMismatch, ZeroVectorInput)
from .exactlin import (Halfspace, ZeroCombo, classify_cone, kernel_basis,
                       strict_separator)
from .znord import (FlagOrdering, IntegerAutomorphism, act, flag_sign, gl_witness,
                    opposite, realize_flag)
from .words import (Automorphism, Endomorphism, Word, ball_words, commutator,
                    generator, identity_word, inner_automorphism,
                    parse_endomorphism, parse_word, word)
from .series import TruncatedSeries, lcs_depth, magnus
from .hall import (basis_layer, bracket_word, coords_at_level, induced_matrix,
                   layer_rank, leading_coords, lyndon_words)
from .stdord import (AxiomReport, StandardOrdering, TwistedOrdering, ball_distance,
                     compare, identity_ordering, ordering_from_json, pullback,
                     separate, std_sign, verify_cone_axioms)
from .autact import (OrderingWitness, RootDecomposition, boundary_separation,
                     common_power, ordering_witness, primitive_root, pulled_sign,
                     verify_automorphism)
from .klein import (KleinAut, KleinElement, KleinOrdering, k_enumerate_orderings,
                    k_mul, k_out_table, k_pull, k_sign, parse_klein,
                    parse_klein_aut, survey_ball_orderings)
from .catalog import automorphism_catalog, ia_generators, random_ia_product

__version__ = "0.1.0"
