"""Exact classification data for fixed loci of finite-order curve
automorphisms acting on rank-2 fixed-determinant moduli.

Everything is computed over the integers and rationals; no floating
point is used anywhere.

Each layer module is imported on first use (PEP 562): `import fixloc`
loads none of them, and `fixloc.X` imports the layer that defines X.
"""

import importlib

_LAYERS = {
    "covers": (
        "CoverProfile", "SpecialOrbit", "factor_cover", "gcd_orbit_lengths", "kernel_order",
        "make_profile", "orbit_length_under_power", "profile_from_json", "profile_to_json",
    ),
    "divisors": (
        "InvariantDivisor", "LineNumericData", "RootExponent", "d_mu", "degree_on_X",
        "divisor_from_json", "divisor_to_json", "is_pullback", "minus_one",
        "norm_degree_check", "numeric_data", "unit_root",
    ),
    "equivariant": (
        "FIRST", "MINUS", "PLUS", "SECOND", "AdmissibleParabolicDatum", "DeterminantLift",
        "FlagSelector", "Rank2EqData", "admissible_pairs", "bar_delta_degree",
        "det_from_json", "det_to_json", "elementary_modification", "enumerate_lambda",
        "from_parabolic", "gamma_apply", "numeric_from_json", "numeric_to_json",
        "parabolic_from_json", "parabolic_to_json", "rank2_from_json", "rank2_to_json",
        "solve_d2", "to_parabolic", "weight_system",
    ),
    "errors": (
        "DomainError", "FixlocError", "InconsistentDegrees", "InternalError", "InvalidDatum",
        "InvalidGenus", "InvalidProfile", "NonIntegralDegree", "NoSolution",
        "NotSemistableNotStrict", "OddOrder", "SchemaError", "UnknownOrbit",
    ),
    "locus": (
        "CensusComponent", "CensusRecord", "ComponentRecord", "DecompositionReport",
        "GradedPoint", "GradedSummand", "HyperellipticReport", "decomposition_report",
        "double_class", "equivalence_classes", "flagged_class", "hyperelliptic_delta",
        "hyperelliptic_profile", "hyperelliptic_report", "m_cross", "parabolic_zeta2",
        "s_i_possible", "sim_e_step", "sim_o_step", "unramified_census", "zeta2_apply",
        "zeta2_partition",
    ),
    "stability": (
        "STABLE", "STRICTLY_SEMISTABLE", "UNSTABLE", "ParabolicP1", "StabilityVerdict",
        "SubbundleWitness", "bundle_from_json", "bundle_to_json", "graded_of", "make_bundle",
        "parabolic_slope_difference", "slope_transfer_check", "split_moduli_P1",
        "stability_classify", "validate_witness", "verdict_to_json", "witness_to_json",
    ),
}
_LAYER_OF = {name: layer for layer, names in _LAYERS.items() for name in names}
_SUBMODULES = {*_LAYERS, "_ser"}

__all__ = sorted(_LAYER_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        # importing a submodule binds it in this namespace
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAYER_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAYER_OF, *_SUBMODULES})
