"""Exact computations with left-invariant group orderings.

Flag orderings on Z^n, orderings of free groups through nilpotent
quotients, witness algorithms for automorphism actions on ordering spaces,
and the Klein bottle group where those actions fail to be faithful.

Each public name, and each submodule that defines one, is imported on
first use (PEP 562), so ``import grouporders`` loads no submodule and
``from grouporders import realize_flag`` loads only what ``znord`` needs.
"""

from importlib import import_module

# home module of each public name; the keys are the submodules that a bare
# ``import grouporders`` exposes as attributes
_EXPORTS = {
    "errors": ("CapExceeded", "CommonRoot", "DepthCapExceeded", "DepthExceedsCap",
               "DimensionMismatch", "EmptyInput", "EmptyWord", "GroupOrderError",
               "IdentityAutomorphism", "IdentityElement", "InputError", "IsIdentity",
               "NegativeCertificate", "NoCone", "NonAutomorphism", "NoSeparator",
               "NotFoundWithinBall", "ParseError", "RankMismatch", "ZeroVectorInput"),
    "exactlin": ("Halfspace", "ZeroCombo", "classify_cone", "kernel_basis",
                 "strict_separator"),
    "znord": ("FlagOrdering", "IntegerAutomorphism", "act", "flag_sign", "gl_witness",
              "opposite", "realize_flag"),
    "words": ("Automorphism", "Endomorphism", "RootDecomposition", "Word", "ball_words",
              "commutator", "common_power", "generator", "identity_word",
              "inner_automorphism", "parse_endomorphism", "parse_word", "primitive_root",
              "word"),
    "series": ("TruncatedSeries", "lcs_depth", "magnus"),
    "hall": ("basis_layer", "bracket_word", "coords_at_level", "induced_matrix",
             "layer_rank", "leading_coords", "lyndon_words"),
    "stdord": ("AxiomReport", "StandardOrdering", "TwistedOrdering", "ball_distance",
               "compare", "identity_ordering", "ordering_from_json", "pullback",
               "separate", "verify_cone_axioms"),
    "autact": ("OrderingWitness", "boundary_separation", "ordering_witness",
               "pulled_sign", "verify_automorphism"),
    "klein": ("KleinAut", "KleinElement", "KleinOrdering", "k_enumerate_orderings",
              "k_mul", "k_out_table", "k_pull", "k_sign", "parse_klein",
              "parse_klein_aut", "survey_ball_orderings"),
    "catalog": ("automorphism_catalog", "ia_generators", "random_ia_product"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)  # the import binds it here
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # stored, so the next lookup is a plain dict hit and skips this function
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_EXPORTS})
