"""Exact-arithmetic Schur algebras, Borel bar resolutions of Weyl modules,
and permutation-module complexes, with verification oracles throughout."""

__version__ = "0.1.0"

from .combinatorics import (
    dominates,
    enumerate_compositions,
    enumerate_dominance_chains,
    enumerate_partitions,
    enumerate_weight_matrices,
    filtration_degree,
    matrix_marginal,
    max_chain_length,
    pair_weight,
)
from .schur import (
    AlgebraElement,
    basis_element,
    format_element,
    identity,
    multiply,
    multiply_basis,
)
from .oracles import (
    TensorEndomorphism,
    compose,
    decode,
    endo_of_basis,
    green_convolution,
    monomial_eval,
    tensor_power_action,
)
from .complexes import ChainComplex, Matrix
from .homology import (
    HomologyGroup,
    SmithForm,
    base_change,
    homology,
    homology_groups,
    rank_mod_p,
    smith_normal_form,
    verify_exactness,
)
from .barcomplex import (
    build_borel_resolution,
    build_weyl_resolution,
    differential,
    enumerate_bar_basis,
    homotopy,
)
from .schurfunctor import (
    multilinear_weight,
    truncated_resolution,
)
from .tableaux import (
    build_bh_complex,
    compare_with_schur_functor,
    semistandard_tableau_count,
    standard_tableau_count,
    tableau_hom,
)
from .dividedpowers import (
    divided_basis,
    divided_power_of_vector,
    divided_product,
    gl_action,
    verify_equivariance,
)

__all__ = [name for name in dir() if not name.startswith("_")]
