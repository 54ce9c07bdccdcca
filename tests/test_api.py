"""The stable public API: ``stpoint.__all__`` and each submodule's ``__all__``.

These lists are the package's contract, together with the CLI flags and
the artifact formats; internals may move freely.  Dropping or renaming a
public name must be a deliberate change to this file, not a side effect of
a refactor.  Adding a name also needs an entry here.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import stpoint

PUBLIC = {
    "stpoint": [
        "__version__",
        "branching_ratio",
        "build_design",
        "cov_eval",
        "COV_FAMILIES",
        "CovariateGrid",
        "DesignMatrix",
        "DivergenceError",
        "equidistant_count",
        "equidistant_counts",
        "EtasParams",
        "fit_glm",
        "FitError",
        "FittedPoissonModel",
        "Formula",
        "FormulaError",
        "GlmResult",
        "globaldiag",
        "GlobalDiagResult",
        "gr_magnitudes",
        "infl",
        "IntensitySpec",
        "interpolate_idw",
        "LgcpFit",
        "LinearNetwork",
        "ListaSet",
        "localdiag",
        "LocalDiagResult",
        "LocalPoissonFit",
        "localtest",
        "LocalTestResult",
        "locstppm",
        "lookup_nearest",
        "make_quadrature",
        "MarkColumn",
        "min_contrast",
        "MinContrastResult",
        "MinimizeResult",
        "nelder_mead",
        "network_distance",
        "NetworkPoint",
        "omori_times",
        "pairwise_network_distances",
        "parse_formula",
        "pattern_from_table",
        "point_vertex_distances",
        "PointPattern",
        "predict_intensity",
        "Quadrature",
        "radial_displacements",
        "RankDeficiencyError",
        "resolve_config",
        "second_order_global",
        "second_order_local",
        "sep_fit",
        "SeparableFit",
        "sim_etas",
        "sim_lgcp",
        "sim_poisson",
        "snap_to_network",
        "SpatialWindow",
        "stlgcppm",
        "stppm",
        "SummaryConfig",
        "SummarySurface",
        "temporal_multiplicity",
        "TimeInterval",
    ],
    "stpoint.cli": [
        "main",
    ],
    "stpoint.core": [
        "MarkColumn",
        "pattern_from_table",
        "PointPattern",
        "SpatialWindow",
        "temporal_multiplicity",
        "TimeInterval",
    ],
    "stpoint.covariates": [
        "CovariateGrid",
        "interpolate_idw",
        "lookup_nearest",
    ],
    "stpoint.diagnostics": [
        "globaldiag",
        "GlobalDiagResult",
        "infl",
        "localdiag",
        "LocalDiagResult",
        "localtest",
        "LocalTestResult",
    ],
    "stpoint.fit": [
        "DivergenceError",
        "fit_glm",
        "FitError",
        "FittedPoissonModel",
        "GlmResult",
        "LocalPoissonFit",
        "locstppm",
        "make_quadrature",
        "predict_intensity",
        "Quadrature",
        "RankDeficiencyError",
        "sep_fit",
        "SeparableFit",
        "stppm",
    ],
    "stpoint.formula": [
        "build_design",
        "DesignMatrix",
        "Factor",
        "Formula",
        "FormulaError",
        "parse_formula",
        "Term",
    ],
    "stpoint.io": [
        "fmt_float",
        "grid_from_nodes",
        "json_dumps",
        "read_covariate_csv",
        "read_intensity_csv",
        "read_network_json",
        "read_pattern_csv",
        "read_surface_csv",
        "write_covariate_csv",
        "write_intensity_csv",
        "write_network_json",
        "write_pattern_csv",
        "write_surface_csv",
    ],
    "stpoint.lgcp": [
        "cov_eval",
        "COV_FAMILIES",
        "LgcpFit",
        "min_contrast",
        "MinContrastResult",
        "sim_lgcp",
        "stlgcppm",
    ],
    "stpoint.network": [
        "equidistant_count",
        "equidistant_counts",
        "LinearNetwork",
        "network_distance",
        "NetworkPoint",
        "pairwise_network_distances",
        "point_vertex_distances",
        "snap_to_network",
    ],
    "stpoint.optimize": [
        "MinimizeResult",
        "nelder_mead",
    ],
    "stpoint.simulate": [
        "branching_ratio",
        "EtasParams",
        "gr_magnitudes",
        "IntensitySpec",
        "omori_times",
        "radial_displacements",
        "sim_etas",
        "sim_poisson",
    ],
    "stpoint.summaries": [
        "ListaSet",
        "second_order_global",
        "second_order_local",
        "SummaryConfig",
        "SummarySurface",
    ],
    "stpoint.svg": [
        "covariate_svg",
        "heatmap_svg",
        "PALETTE",
        "pattern_svg",
        "surface_svg",
    ],
}


def test_every_module_is_pinned():
    modules = {"stpoint"} | {
        f"stpoint.{m.name}" for m in pkgutil.iter_modules(stpoint.__path__)
    }
    assert modules == set(PUBLIC)


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_public_names_are_pinned_and_resolve(module):
    mod = importlib.import_module(module)
    assert len(mod.__all__) == len(set(mod.__all__)), "duplicate __all__ entry"
    assert sorted(mod.__all__) == sorted(PUBLIC[module])
    for name in mod.__all__:
        assert hasattr(mod, name), f"{module}.{name} does not resolve"


def test_fit_glm_contract_is_pinned():
    # fit_glm is a public wrapper over the internal IRLS engine: the engine
    # may change, this signature and the fields of GlmResult may not
    P = inspect.Parameter
    sig = inspect.signature(stpoint.fit_glm)
    assert [(p.name, p.kind, p.default, p.annotation) for p in sig.parameters.values()] == [
        ("X", P.POSITIONAL_OR_KEYWORD, P.empty, "np.ndarray"),
        ("y", P.POSITIONAL_OR_KEYWORD, P.empty, "np.ndarray"),
        ("weights", P.POSITIONAL_OR_KEYWORD, P.empty, "np.ndarray"),
        ("names", P.POSITIONAL_OR_KEYWORD, None, P.empty),
        ("offset", P.POSITIONAL_OR_KEYWORD, None, P.empty),
        ("family", P.POSITIONAL_OR_KEYWORD, "poisson", "str"),
        ("tol", P.POSITIONAL_OR_KEYWORD, 1e-8, "float"),
        ("maxit", P.POSITIONAL_OR_KEYWORD, 50, "int"),
    ]
    assert sig.return_annotation == "GlmResult"
    fields = dataclasses.fields(stpoint.GlmResult)
    assert [(f.name, f.type) for f in fields] == [
        ("names", "Tuple[str, ...]"),
        ("coef", "np.ndarray"),
        ("converged", "bool"),
        ("n_iter", "int"),
        ("deviance", "float"),
        ("score_norm", "float"),
    ]
    assert stpoint.GlmResult.__dataclass_params__.frozen
