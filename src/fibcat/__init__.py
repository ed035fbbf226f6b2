"""Exact invariants from the rank-2 modular category with objects {1, A}.

A public name is bound on first use (PEP 562): ``import fibcat`` loads no
submodule, and ``fibcat.Theory`` loads ``fibcat.scalars`` alone."""

import importlib

# each module and the public names it exports
_EXPORTS = {
    "category": ("Morphism", "Word", "associator", "axiom_suite", "birth",
                 "braiding", "compose", "death", "identity", "parse_word",
                 "s_matrix", "scale_identity", "tensor_morphisms",
                 "tensor_words", "twist"),
    "invariants": ("c_function", "continued_fraction_framings",
                   "expand_minus_continued_fraction", "hopf_tr_closed_form",
                   "lens_space_framed_link", "lens_tr_closed_form",
                   "signature", "surgery", "tr_link", "tr_manifold"),
    "scalars": ("ALL_THEORIES", "Rational", "Scalar", "Theory"),
    "spines": ("SPHERE_SPINE", "Spine", "admissible", "module_iso_check",
               "pairing_categorical", "pairing_table", "parse_spine",
               "sixj_categorical", "sixj_table", "t_epsilon", "tv"),
    "tangles": ("LinkDiagram", "LinkEvent", "build_hopf_chain", "evaluate",
                "evaluate_all_a", "parse_link"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    # an unknown name must raise AttributeError: ``from fibcat import
    # category`` then falls back to importing the submodule
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
