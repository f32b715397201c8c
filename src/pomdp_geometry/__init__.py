"""Algebraic and geometric analysis of POMDP state-action frequencies.

Library layout:

- model:    domain types (model, policy, frequency), validation, file formats,
            and the input error (a ValueError) that every argument check raises
- freq:     exact frequencies, series oracle, values, policy gradients, conditioning
- rational: degree bounds, the exact reward line R = N/D (RewardLine) and
            its slope numerator, rational fitting of vectorised callables,
            one-state policy lines, vertex improvement, monotone improvement
            paths, and the sweeps of the policy polytope (vertices, edges)
- geometry: linear description of the fully observable frequency polytope,
            effective-policy polytope, polynomial feasibility constraints,
            face lattices
- critical: blind-controller critical points, critical-point bounds,
            polar degrees, landscape scans, KKT residuals
- cli:      the `pomdpgeo` command-line interface

The exported names are declared once, in `_EXPORTS` by home module, and
`__all__` is read from it.  `import pomdp_geometry` loads only the solver
core, model and freq (whose import sets the allocator thresholds README
describes), and binds their names here.  rational, geometry and critical,
and the names exported from them, load on first access: a module
`__getattr__` looks each one up in its home module on every access and
never binds it here, so a function patched in its home module is what the
package hands out.  A caller that needs only the core, such as a batch of
60x30x8 solves, peaks 2.6 MB lower in resident memory; the first call into
an analysis pays its import, 10-36 ms without cached bytecode.
"""

from importlib import import_module as _import_module

# Every exported name, by home module, in the order of `__all__`: the only list of them.
# The names of model and freq are bound here on import; `_HOME` maps the others, and the
# three analysis modules themselves, to the module `__getattr__` looks them up in.
_EXPORTS = {
    "model": (
        "Frequency",
        "InputError",
        "ModelFormatError",
        "PomdpModel",
        "Policy",
        "ValidationReport",
        "Violation",
        "compile_graph_source",
        "effective_policy",
        "load_model_text",
        "parse_graph_model",
        "parse_model",
        "serialize_model",
        "transition_kernels",
        "validate",
    ),
    "freq": (
        "ErgodicityError",
        "GradientBundle",
        "ValueBundle",
        "conditioning_inverse",
        "policy_gradient",
        "reward_of",
        "state_action_frequency",
        "truncated_series_oracle",
        "truncation_length",
        "value_bundle",
    ),
    "rational": (
        "DegreeCertificate",
        "DegreeFitError",
        "RationalCurve",
        "best_deterministic",
        "degree_bound",
        "deterministic_policies",
        "fit_rational_curve",
        "improvement_path",
        "interpolation_speed",
        "line_degree_certificate",
        "reward_curve_on_line",
        "vertex_improvement",
    ),
    "geometry": (
        "CertificationError",
        "EffectivePolytope",
        "FaceLattice",
        "FeasibilityReport",
        "HalfspaceSystem",
        "PolynomialConstraint",
        "RankError",
        "SizeCapError",
        "constraint_polynomials",
        "effective_polytope",
        "face_lattice",
        "feasibility_report",
        "kirchhoff_image",
        "kirchhoff_residual",
        "mdp_polytope",
        "model_constraint_polynomials",
        "pseudoinverse",
        "transfer_inequality",
    ),
    "critical": (
        "BoundInput",
        "CriticalSet",
        "ScanGrid",
        "blind_critical_points",
        "critical_point_bound",
        "face_critical_bound",
        "kkt_residual",
        "landscape_scan",
        "polar_degree_rank_one",
        "polar_degree_terms",
    ),
}
_CORE = ("model", "freq")
globals().update({name: getattr(_import_module(f"{__name__}.{home}"), name)
                  for home in _CORE for name in _EXPORTS[home]})
_HOME = {name: home for home, names in _EXPORTS.items() if home not in _CORE
         for name in (home, *names)}


def __getattr__(name):
    # Looked up in the home module on every access and never bound here, so a
    # function patched in its home module (a tracer, a test) is what callers get.
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = _import_module(f"{__name__}.{home}")
    return module if name == home else getattr(module, name)


def __dir__():
    return sorted(globals().keys() | _HOME.keys())


__all__ = [name for names in _EXPORTS.values() for name in names]
