"""Exact invariants from the rank-2 modular category with objects {1, A}."""

from .category import (Morphism, Word, associator, axiom_suite, birth, braiding,
                       compose, death, identity, parse_word, s_matrix,
                       scale_identity, tensor_morphisms, tensor_words, twist)
from .invariants import (c_function, continued_fraction_framings,
                         expand_minus_continued_fraction, hopf_tr_closed_form,
                         lens_space_framed_link, lens_tr_closed_form,
                         signature, surgery, tr_link, tr_manifold)
from .scalars import ALL_THEORIES, Rational, Scalar, Theory
from .spines import (SPHERE_SPINE, Spine, admissible, module_iso_check,
                     pairing_categorical, pairing_table, parse_spine,
                     sixj_categorical, sixj_table, t_epsilon, tv)
from .tangles import (LinkDiagram, LinkEvent, build_hopf_chain, evaluate,
                      evaluate_all_a, parse_link)

__all__ = [
    "ALL_THEORIES", "LinkDiagram", "LinkEvent",
    "Morphism", "Rational", "SPHERE_SPINE", "Scalar", "Spine",
    "Theory", "Word", "admissible", "associator", "axiom_suite", "birth",
    "braiding", "build_hopf_chain", "c_function", "compose",
    "continued_fraction_framings", "death", "evaluate", "evaluate_all_a",
    "expand_minus_continued_fraction", "hopf_tr_closed_form", "identity",
    "lens_space_framed_link", "lens_tr_closed_form", "module_iso_check",
    "pairing_categorical", "pairing_table", "parse_link", "parse_spine",
    "parse_word", "s_matrix", "scale_identity", "signature", "sixj_categorical",
    "sixj_table", "surgery", "t_epsilon", "tensor_morphisms",
    "tensor_words", "tr_link", "tr_manifold", "tv", "twist",
]

__version__ = "0.1.0"
