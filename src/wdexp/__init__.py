"""Exact exponent calculus for semisimple Weil-Deligne representations.

The package models irreducible twist-orbit classes abstractly (dimension,
Swan slope, twist degeneracy, dual), computes Artin/Swan exponents of
tensor products through one closed kernel, verifies the exponent bounds on
generated axiom-satisfying models, and cross-checks the unramified theory
against genuine nilpotent linear algebra.
"""

from .bounds import (
    CheckResult,
    PairExponents,
    check_bound_A,
    check_bound_B,
    check_bound_C,
    run_sweep,
    sharpness_suite,
)
from .exponents import (
    ExponentReport,
    exponents_of,
    indec_tensor_kernel,
    is_minimal_rep,
    tensor_exponents,
)
from .generator import GenParams, GeneratorError, SplitMix64, gen_model, gen_rep
from .jordan import (
    Partition,
    nilpotent_rank,
    tensor_partition,
    unramified_oracle_artin,
)
from .maxplus import (
    MaxPlusElem,
    mp_degree_weight,
    mp_vee,
    mp_vee_weight,
    optimal_witness,
    pair_upper_bound,
    pair_witness,
    s_map,
)
from .model import (
    UNRAMIFIED_ID,
    IrreducibleClass,
    ModelInstance,
    ModelStructureError,
    ValidationReport,
    is_minimal_class,
    load_model,
    dump_model,
    validate_model,
)
from .rep import RepSyntaxError, WDRep, format_rep, parse_rep, rep_dual

__all__ = [name for name in dir() if not name.startswith("_")]
