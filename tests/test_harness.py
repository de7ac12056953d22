"""Verification-harness tests: manufactured-solution validity, battery
sanity, suite reports and their determinism, convergence tables with CSV
round-trips, configured runs with on-disk artifacts, and the command-line
interface."""

import json
import os
import tracemalloc

import numpy as np
import pytest

from bbem.errors import BBEMError, InvalidSource, NoInteriorProbes
from bbem.geometry import build_cube, build_icosphere, winding_number
from bbem.kernels import BrinkmanParams, stokeslet
from bbem.solvers import SolverWorkspace
from bbem import cli
from bbem import solvers as S
from bbem import harness as H

from _oracles import fd_gradient, fd_laplacian

PARAMS = BrinkmanParams(alpha=1.0)
SPHERE_POLE = [0.0, 0.0, 3.0]
# json.dumps writes these as NaN and Infinity, which json.load accepts
NAN = float("nan")
INF = float("inf")


# ------------------------------------------------------ manufactured fields

def test_manufactured_rejects_bad_column():
    for column in (0, 4, -1):
        with pytest.raises(ValueError, match="column"):
            H.manufactured_solution(SPHERE_POLE, column, PARAMS)


def test_manufactured_rejects_nonfinite_point():
    with pytest.raises(ValueError, match="finite"):
        H.manufactured_solution([np.inf, 0.0, 0.0], 1, PARAMS)


def test_manufactured_rejects_interior_pole():
    mesh = build_icosphere(1)
    with pytest.raises(InvalidSource, match="inside"):
        H.manufactured_solution([0.0, 0.0, 0.0], 2, PARAMS, mesh)


def test_manufactured_rejects_pole_too_close():
    mesh = build_icosphere(1)
    with pytest.raises(InvalidSource, match="quarter"):
        H.manufactured_solution([0.0, 0.0, 1.2], 2, PARAMS, mesh)


def test_manufactured_guard_runs_on_trace_and_traction():
    source = H.manufactured_solution([0.0, 0.0, 1.2], 2, PARAMS)
    mesh = build_icosphere(1)
    with pytest.raises(InvalidSource):
        source.trace(mesh)
    with pytest.raises(InvalidSource):
        source.traction(mesh)


def test_manufactured_stokes_limit_is_stokeslet_column():
    source = H.manufactured_solution(SPHERE_POLE, 2,
                                     BrinkmanParams(alpha=0.0))
    points = np.array([[0.1, -0.2, 0.3], [0.0, 0.0, 0.0], [-0.4, 0.2, 0.1]])
    expected = stokeslet(points - np.asarray(SPHERE_POLE))[:, :, 1]
    np.testing.assert_allclose(source.velocity(points), expected, rtol=1e-12)


def test_manufactured_fields_solve_the_pde():
    """Momentum and mass balance of the manufactured pair at interior
    points, checked with the shared finite-difference oracles."""
    source = H.manufactured_solution(SPHERE_POLE, 2, PARAMS)
    rng = np.random.default_rng(11)
    points = rng.uniform(-0.4, 0.4, size=(20, 3))
    lap = fd_laplacian(source.velocity, points, 1e-3)
    grad_p = fd_gradient(source.pressure, points, 1e-3, order4=True)
    resid = lap - PARAMS.alpha * source.velocity(points) - grad_p
    assert np.max(np.abs(resid)) < 1e-5
    div = np.einsum("pii->p",
                    fd_gradient(source.velocity, points, 1e-3, order4=True))
    assert np.max(np.abs(div)) < 1e-6


def test_manufactured_trace_flux_vanishes_under_refinement():
    """The exact trace is divergence-free, so its discrete boundary flux is
    pure quadrature error.  On the icosphere the per-panel flux terms cancel
    exactly at levels 1 and 2 (math.fsum gives 0.0), so each level's flux is
    bounded by the rounding of the sum, not compared across levels."""
    source = H.manufactured_solution(SPHERE_POLE, 2, PARAMS)
    for level in (1, 2):
        mesh = build_icosphere(level)
        trace = source.trace(mesh)
        terms = mesh.areas * np.sum(trace.values * mesh.normals, axis=1)
        flux = abs(float(np.sum(terms)))
        assert flux <= 1e-14 * float(np.sum(np.abs(terms)))
        assert flux < 1e-4


def test_interior_probes_stay_inside():
    for mesh in (build_icosphere(1), build_cube(1)):
        probes = H.interior_probes(mesh)
        assert probes.shape == H.INTERIOR_PROBES.shape
        np.testing.assert_allclose(winding_number(mesh, probes), 1.0,
                                   atol=1e-6)


def test_interior_probes_scale_with_the_mesh():
    small = H.interior_probes(build_icosphere(1, radius=1.0))
    large = H.interior_probes(build_icosphere(1, radius=2.0))
    np.testing.assert_allclose(large, 2.0 * small, rtol=1e-12)


# ----------------------------------------------------------------- batteries

def test_kernel_pde_errors_are_tiny():
    errors = H.kernel_pde_errors(n_points=20)
    assert errors["pde_residual"] < 1e-5
    assert errors["divergence"] < 1e-6


def test_stokes_limit_gaps_decrease():
    gaps = H.stokes_limit_gaps()
    assert gaps[0] > gaps[1] > gaps[2] > 0.0


def test_decay_envelope_excess_near_one():
    assert 1.0 <= H.decay_envelope_excess() < 1.05


def test_jump_battery_measures_small_jumps():
    results = H.jump_battery(build_icosphere(2), PARAMS)
    assert set(results) == {"sl_trace", "w_jump", "t_jump"}
    assert results["sl_trace"] < 1e-2
    assert results["w_jump"] < 1e-1
    assert results["t_jump"] < 2e-1


def test_operator_spectra_and_normal_defect():
    ws = SolverWorkspace(build_icosphere(1), BrinkmanParams(alpha=4.0))
    spectra = H.operator_spectra(ws)
    assert spectra["sigma_min_minus"] < 5e-2
    assert spectra["nu_cosine"] > 0.99
    assert spectra["sigma2_minus"] > 10.0 * spectra["sigma_min_minus"]
    assert spectra["sigma_min_plus"] > 0.1
    assert H.sl_normal_defect(ws) < 1e-6


def test_operator_spectra_writes_minus_system_once(monkeypatch):
    # with a warm Neumann factor the plus floor is read from it: only
    # −½I + K* is written
    ws = SolverWorkspace(build_icosphere(1), BrinkmanParams(alpha=4.0))
    ws.neumann_factorization()
    write = S._traction_system
    diagonals = []

    def counted(workspace, diagonal):
        diagonals.append(diagonal)
        return write(workspace, diagonal)

    monkeypatch.setattr(S, "_traction_system", counted)
    monkeypatch.setattr(H, "_traction_system", counted)
    H.operator_spectra(ws)
    assert diagonals == [-0.5]


@pytest.fixture(scope="module")
def sphere2_double_layer():
    return SolverWorkspace(build_icosphere(2), PARAMS).double_layer


@pytest.mark.parametrize("call", [
    SolverWorkspace.dirichlet_factorization,
    SolverWorkspace.neumann_factorization,
    H.operator_spectra,
])
def test_factor_and_spectra_peaks_stay_near_one_matrix(sphere2_double_layer,
                                                       monkeypatch, call):
    # above a start where K is assembled, each system is one n×n buffer
    # that its LU overwrites, and the minus factor of the spectra is gone
    # before the Neumann factor is written
    ws = SolverWorkspace(build_icosphere(2), PARAMS)
    monkeypatch.setattr(ws, "_double", sphere2_double_layer)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call(ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - start) / sphere2_double_layer.matrix.nbytes <= 1.5


def test_manufactured_errors_requires_labeling_for_mixed():
    mesh = build_cube(1)
    source = H.manufactured_solution(H.CUBE_SOURCE_POINT, 2, PARAMS)
    with pytest.raises(ValueError, match="labeling"):
        H.manufactured_errors(H.MIXED, mesh, source, H.INTERIOR_PROBES)


def test_newtonian_residual_small_and_guarded():
    assert H.newtonian_residual(12, PARAMS) < 5e-2
    with pytest.raises(ValueError, match="5 cells"):
        H.newtonian_residual(4, PARAMS)


# ------------------------------------------------------------------- checks

def test_check_comparisons():
    assert H._check("a", 1.0, 2.0).passed
    assert not H._check("a", 3.0, 2.0).passed
    assert H._check("a", 3.0, 2.0, ">=").passed
    assert not H._check("a", 2.0, 2.0, ">").passed
    assert not H._check("a", np.nan, 2.0).passed


def test_check_line_format():
    line = H._check("pde_residual", 1.23e-3, 5e-2).line()
    assert line == "PASS pde_residual: 1.230000e-03 <= 5.000000e-02"
    assert H._check("x", 3.0, 2.0).line().startswith("FAIL x: ")


def test_verify_suite_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown suite"):
        H.verify_suite("spectra")


def test_kernels_suite_passes_and_reports():
    report = H.verify_suite("kernels")
    assert report.passed
    assert report.suite == "kernels"
    assert report.seed == H.SUITE_SEED
    assert len(report.lines()) == len(report.checks)
    doc = json.loads(report.to_json())
    assert doc["wall_time_s"] == report.wall_time_s
    assert "wall_time_s" not in json.loads(report.fingerprint())


def test_kernels_suite_fingerprint_is_stable():
    assert (H.verify_suite("kernels").fingerprint()
            == H.verify_suite("kernels").fingerprint())


# -------------------------------------------------------------- convergence

STUDY = {
    "kind": "dirichlet",
    "geometry": {"type": "icosphere"},
    "levels": [1, 2],
    "alpha": 1.0,
    "source_point": SPHERE_POLE,
    "column": 2,
}


def test_convergence_study_halves_the_error():
    table = H.convergence_study(STUDY)
    first, second = table.rows
    assert (first.level, second.level) == (1, 2)
    assert (first.n_panels, second.n_panels) == (80, 320)
    assert first.ratio is None
    assert second.ratio >= 2.0
    assert second.interior_l2 < first.interior_l2
    assert second.jump_residual < first.jump_residual


def test_convergence_study_mixed_cube_decreases_monotonically():
    table = H.convergence_study({
        "kind": "mixed",
        "geometry": {"type": "cube"},
        "levels": [1, 2],
        "alpha": 1.0,
        "source_point": list(H.CUBE_SOURCE_POINT),
        "column": 2,
        "patches": {"type": "cube_faces", "neumann_faces": ["+z"]},
    })
    first, second = table.rows
    assert (first.n_panels, second.n_panels) == (48, 192)
    assert second.interior_l2 < first.interior_l2
    assert second.jump_residual < first.jump_residual


def test_convergence_study_single_level():
    table = H.convergence_study({**STUDY, "levels": [2]})
    assert len(table.rows) == 1
    assert table.rows[0].ratio is None
    assert "320" in table.to_csv()


def test_convergence_csv_round_trip():
    table = H.convergence_study(STUDY)
    text = table.to_csv()
    assert text.splitlines()[0] == "level,n_panels,trace_l2,interior_l2," \
                                   "jump_residual,ratio"
    assert H.parse_convergence_csv(text) == table
    assert H.parse_convergence_csv(text).to_csv() == text


def test_parse_convergence_csv_rejects_bad_header():
    with pytest.raises(ValueError, match="header"):
        H.parse_convergence_csv("a,b,c\n1,2,3\n")


def test_convergence_table_requires_increasing_panels():
    row = H.ConvergenceRow(level=1, n_panels=80, trace_l2=0.0,
                           interior_l2=0.1, jump_residual=0.1, ratio=None)
    with pytest.raises(ValueError, match="increase"):
        H.ConvergenceTable(rows=(row, row))


def test_convergence_study_refuses_oversized_meshes(monkeypatch):
    # the budget is checked for every level before the first solve
    calls = []
    monkeypatch.setattr(H, "manufactured_errors",
                        lambda *args, **kwargs: calls.append(args))
    with pytest.raises(H.ConfigError, match="budget"):
        H.convergence_study({**STUDY, "levels": [1, 4]})
    assert calls == []


def test_convergence_study_names_missing_keys():
    partial = {k: v for k, v in STUDY.items() if k != "source_point"}
    with pytest.raises(H.ConfigError, match="source_point"):
        H.convergence_study(partial)


def test_convergence_study_rejects_unsorted_levels():
    with pytest.raises(H.ConfigError, match="strictly"):
        H.convergence_study({**STUDY, "levels": [2, 1]})


def test_convergence_study_requires_patches_for_mixed():
    with pytest.raises(H.ConfigError, match="patches"):
        H.convergence_study({**STUDY, "kind": "mixed",
                             "geometry": {"type": "cube"}})


# ---------------------------------------------------------- configured runs

RUN = {
    "kind": "neumann",
    "geometry": {"type": "icosphere", "level": 1},
    "alpha": 1.0,
    "data": {"source": "manufactured", "source_point": SPHERE_POLE,
             "column": 2},
}


def _write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def test_run_config_writes_deterministic_artifacts(tmp_path):
    path = _write_config(tmp_path, RUN)
    first = H.run_config(path, out_dir=str(tmp_path / "a"))
    second = H.run_config(path, out_dir=str(tmp_path / "b"))
    fields_a = open(os.path.join(first, "fields.csv")).read()
    fields_b = open(os.path.join(second, "fields.csv")).read()
    assert fields_a == fields_b
    assert fields_a.splitlines()[0] == ("x,y,z,velocity_x,velocity_y,"
                                        "velocity_z,pressure")
    doc_a = json.load(open(os.path.join(first, "report.json")))
    doc_b = json.load(open(os.path.join(second, "report.json")))
    doc_a["report"].pop("wall_time_s")
    doc_b["report"].pop("wall_time_s")
    assert doc_a == doc_b


def test_run_config_looks_the_solver_up_at_call_time(tmp_path, monkeypatch):
    # a rebinding of solvers.solve_dirichlet (as a tracer does) is seen by
    # run_config
    calls = []
    solve = S.solve_dirichlet

    def recording(spec, workspace=None):
        calls.append(spec.kind)
        return solve(spec, workspace)

    monkeypatch.setattr(S, "solve_dirichlet", recording)
    cfg = {**RUN, "kind": "dirichlet"}
    H.run_config(_write_config(tmp_path, cfg), out_dir=str(tmp_path / "out"))
    assert calls == [S.DIRICHLET]


def test_run_config_manufactured_neumann_report(tmp_path):
    path = _write_config(tmp_path, RUN)
    dest = H.run_config(path, out_dir=str(tmp_path / "out"))
    doc = json.load(open(os.path.join(dest, "report.json")))
    assert doc["report"]["residual_l2"] < 1e-8
    assert doc["interior_l2"] < 2e-1
    assert doc["contraction"] is None
    assert doc["config"]["data"]["source"] == "manufactured"


def test_run_config_expression_reproduces_uniform_flow(tmp_path):
    cfg = {"kind": "dirichlet",
           "geometry": {"type": "icosphere", "level": 1},
           "alpha": 1.0, "data": {"source": "expression",
                                  "name": "uniform_x"}}
    dest = H.run_config(_write_config(tmp_path, cfg),
                        out_dir=str(tmp_path / "out"))
    doc = json.load(open(os.path.join(dest, "report.json")))
    assert doc["interior_l2"] < 1e-2
    rows = open(os.path.join(dest, "fields.csv")).read().splitlines()[1:]
    velocity_x = [float(row.split(",")[3]) for row in rows]
    np.testing.assert_allclose(velocity_x, 1.0, atol=2e-3)


def test_run_config_file_source(tmp_path):
    mesh = build_icosphere(1)
    values = np.tile([0.0, 0.0, 1.0], (mesh.n_panels, 1))
    npy = tmp_path / "trace.npy"
    np.save(npy, values)
    cfg = {"kind": "dirichlet",
           "geometry": {"type": "icosphere", "level": 1},
           "alpha": 0.5, "data": {"source": "file", "dirichlet": str(npy)}}
    dest = H.run_config(_write_config(tmp_path, cfg),
                        out_dir=str(tmp_path / "out"))
    doc = json.load(open(os.path.join(dest, "report.json")))
    assert doc["interior_l2"] is None
    assert doc["report"]["residual_l2"] < 1e-8


def test_run_config_rejects_missing_kind(tmp_path):
    cfg = {k: v for k, v in RUN.items() if k != "kind"}
    with pytest.raises(H.ConfigError, match="'kind'"):
        H.run_config(_write_config(tmp_path, cfg), out_dir=str(tmp_path))


def test_run_config_rejects_missing_data_file(tmp_path):
    cfg = {**RUN, "kind": "dirichlet",
           "data": {"source": "file", "dirichlet": str(tmp_path / "no.npy")}}
    with pytest.raises(H.ConfigError, match="does not exist"):
        H.run_config(_write_config(tmp_path, cfg), out_dir=str(tmp_path))


def test_run_config_rejects_wrong_file_shape(tmp_path):
    npy = tmp_path / "trace.npy"
    np.save(npy, np.zeros((7, 3)))
    cfg = {**RUN, "kind": "dirichlet",
           "data": {"source": "file", "dirichlet": str(npy)}}
    with pytest.raises(H.ConfigError, match="shape"):
        H.run_config(_write_config(tmp_path, cfg), out_dir=str(tmp_path))


@pytest.mark.parametrize("name, values, match", [
    ("trace.npy", np.full((80, 3), np.nan), "finite"),
    ("trace.npy", np.full((80, 3), "1.0"), "finite"),
    ("trace.npz", np.zeros((80, 3)), "not a .npy file"),
], ids=["nan", "strings", "npz"])
def test_run_config_rejects_bad_file_values(tmp_path, name, values, match):
    path = tmp_path / name
    (np.savez if name.endswith(".npz") else np.save)(path, values)
    cfg = {**RUN, "kind": "dirichlet",
           "data": {"source": "file", "dirichlet": str(path)}}
    with pytest.raises(H.ConfigError, match=f"'data.dirichlet': .*{match}"):
        H.run_config(_write_config(tmp_path, cfg), out_dir=str(tmp_path))


def test_run_config_rejects_drag_without_volume(tmp_path):
    cfg = {**RUN, "beta": 1.0}
    with pytest.raises(H.ConfigError, match="beta"):
        H.run_config(_write_config(tmp_path, cfg), out_dir=str(tmp_path))


def test_run_config_rejects_interior_source(tmp_path):
    cfg = {**RUN, "data": {"source": "manufactured",
                           "source_point": [0.0, 0.0, 0.0], "column": 2}}
    with pytest.raises(InvalidSource):
        H.run_config(_write_config(tmp_path, cfg), out_dir=str(tmp_path))


def test_run_config_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(H.ConfigError, match="JSON"):
        H.run_config(str(path), out_dir=str(tmp_path))


def test_run_config_requires_an_output_directory(tmp_path):
    with pytest.raises(H.ConfigError, match="output"):
        H.run_config(_write_config(tmp_path, RUN))


CUBE_RUN = {
    "kind": "mixed",
    "geometry": {"type": "cube", "level": 1},
    "patches": {"type": "cube_faces", "neumann_faces": ["+z"]},
    "alpha": 1.0,
    "data": {"source": "manufactured",
             "source_point": list(H.CUBE_SOURCE_POINT), "column": 2},
    "volume": {"resolution": 6, "forcing": [0.05, -0.02, 0.03]},
}


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_run_config_with_volume_forcing(tmp_path, beta):
    dest = H.run_config(_write_config(tmp_path, {**CUBE_RUN, "beta": beta}),
                        out_dir=str(tmp_path / "out"))
    report = json.load(open(os.path.join(dest, "report.json")))
    assert report["interior_l2"] is None
    if beta == 0.0:
        assert report["report"]["kind"] == "mixed"
        assert report["contraction"] is None
    else:
        assert report["report"] is None
        assert report["contraction"] is not None
    lines = open(os.path.join(dest, "fields.csv")).read().splitlines()[1:]
    values = np.array([[float(v) for v in line.split(",")] for line in lines])
    assert values.size and np.all(np.isfinite(values))


_BAD_SETTINGS = [
    ({"quadrature_order": 5}, "'quadrature_order'"),
    ({"patches": {"type": "cube_faces", "neumann_faces": ["+w"]}},
     "'patches'"),
    ({"patches": {"type": "cube_faces", "neumann_faces": 5}}, "'patches'"),
    ({"patches": {"type": "plane"}}, "'patches.normal'"),
]


@pytest.mark.parametrize("entry, key", _BAD_SETTINGS + [
    ({"geometry": {"type": "cube", "level": 1, "side": 0}}, "'geometry.side'"),
    ({"picard": {"damping": 1.5}}, "'picard': damping"),
    ({"data": {"source": "manufactured", "source_point": [NAN, 0.0, 3.0],
               "column": 2}}, "'data.source_point': must be finite"),
    ({"volume": {"resolution": 6, "forcing": [0.0, INF, 0.0]}},
     "'volume.forcing': must be finite"),
    ({"alpha": 10 ** 400}, "'alpha': must be finite"),
])
def test_run_config_bad_values_name_the_key(tmp_path, entry, key):
    cfg = {k: v for k, v in CUBE_RUN.items() if k != "volume"}
    cfg.update(entry)
    with pytest.raises(H.ConfigError, match=key):
        H.run_config(_write_config(tmp_path, cfg), out_dir=str(tmp_path))


@pytest.mark.parametrize("resolution, refused", [(80, False), (81, True),
                                                 (100000, True)])
def test_run_config_volume_budget(resolution, refused):
    # resolution³ cells times the 48 panels of cube(1) may not pass
    # PANEL_BUDGET²; refused while parsing, before any grid is built
    cfg = {**CUBE_RUN, "volume": {**CUBE_RUN["volume"],
                                  "resolution": resolution}}
    if refused:
        with pytest.raises(H.ConfigError, match="'volume.resolution'.*budget"):
            H.RunConfig.from_mapping(cfg)
    else:
        assert H.RunConfig.from_mapping(cfg).volume[0] == resolution


@pytest.mark.parametrize("entry, key", _BAD_SETTINGS + [
    ({"geometry": {"type": "cube", "side": 0}}, "'geometry.side'"),
    ({"kind": "dirichlet", "geometry": {"type": "icosphere", "radius": 0}},
     "'geometry.radius'"),
    ({"source_point": [NAN, 0.0, 3.0]}, "'source_point': must be finite"),
    ({"source_point": [0.0, -INF, 3.0]}, "'source_point': must be finite"),
    ({"source_point": [0, 0, 10 ** 400]}, "'source_point': must be finite"),
])
def test_convergence_study_bad_values_name_the_key(entry, key):
    cfg = {**STUDY, "kind": "mixed", "geometry": {"type": "cube"},
           "levels": [1], "source_point": list(H.CUBE_SOURCE_POINT),
           "patches": CUBE_RUN["patches"], **entry}
    with pytest.raises(H.ConfigError, match=key):
        H.convergence_study(cfg)


# -------------------------------------------------------------------- CLI

def test_cli_verify_kernels(capsys):
    assert cli.main(["verify", "--suite", "kernels"]) == 0
    out = capsys.readouterr().out
    assert f"seed {H.SUITE_SEED}" in out
    assert "passed 4/4 checks" in out
    assert out.count("PASS") == 4


def test_cli_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--suite", "spectra"])
    assert info.value.code == 2


def test_cli_solve_and_artifacts(tmp_path, capsys):
    path = _write_config(tmp_path, RUN)
    out = str(tmp_path / "out")
    assert cli.main(["solve", "--config", path, "--out", out]) == 0
    assert "report.json" in capsys.readouterr().out
    assert os.path.isfile(os.path.join(out, "report.json"))
    assert os.path.isfile(os.path.join(out, "fields.csv"))


def test_cli_solve_missing_config_is_usage_error(tmp_path, capsys):
    code = cli.main(["solve", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_cli_solve_bad_config_names_the_key(tmp_path, capsys):
    cfg = {k: v for k, v in RUN.items() if k != "alpha"}
    code = cli.main(["solve", "--config", _write_config(tmp_path, cfg),
                     "--out", str(tmp_path)])
    assert code == 2
    assert "'alpha'" in capsys.readouterr().err


def test_cli_solve_reports_missing_pressure_probes(tmp_path, capsys,
                                                   monkeypatch):
    # no probe counts as inside: the pressure anchor raises a named
    # BBEMError, which the CLI reports as a numerical failure
    monkeypatch.setattr(S, "winding_number",
                        lambda mesh, points: np.zeros(len(points)))
    code = cli.main(["solve", "--config", _write_config(tmp_path, RUN),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "numerical failure" in err and "pressure probes" in err
    assert issubclass(NoInteriorProbes, BBEMError)


def test_cli_converge_prints_and_writes_csv(tmp_path, capsys):
    cfg = {**STUDY, "levels": [1], "output": str(tmp_path / "study")}
    assert cli.main(["converge", "--config",
                     _write_config(tmp_path, cfg)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("level,n_panels,")
    written = open(tmp_path / "study" / "convergence.csv").read()
    assert written.splitlines()[0] == out.splitlines()[0]


def test_cli_converge_bad_value_is_config_error(tmp_path, capsys):
    cfg = {**STUDY, "geometry": {"type": "icosphere", "radius": 0}}
    assert cli.main(["converge", "--config",
                     _write_config(tmp_path, cfg)]) == 2
    assert "'geometry.radius'" in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg", [
    ("solve", {**RUN, "data": {"source": "manufactured",
                               "source_point": [NAN, 0.0, 3.0], "column": 2}}),
    ("converge", {**STUDY, "source_point": [NAN, 0.0, 3.0]}),
])
def test_cli_nonfinite_value_is_config_error(tmp_path, capsys, command, cfg):
    argv = [command, "--config", _write_config(tmp_path, cfg)]
    if command == "solve":
        argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "source_point': must be finite" in err


@pytest.mark.parametrize("command, cfg", [
    ("solve", {**RUN, "geometry": {"type": "icosphere", "level": 10000}}),
    ("converge", {**STUDY, "levels": [1, 10000]}),
])
def test_cli_huge_level_is_budget_error(tmp_path, capsys, command, cfg):
    # the level is compared with the largest the budget admits, so no
    # panel count past Python's integer digit limit is formed or printed
    argv = [command, "--config", _write_config(tmp_path, cfg)]
    if command == "solve":
        argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "budget" in err


def test_cli_number_past_the_digit_limit_is_config_error(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(RUN).replace('"alpha": 1.0',
                                            '"alpha": 1' + "0" * 5000))
    assert cli.main(["solve", "--config", str(path), "--out",
                     str(tmp_path / "out")]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_cli_kernels_prints_tensor(capsys):
    assert cli.main(["kernels", "--eval", "1.0,0.5,-0.25",
                     "--alpha", "2.0"]) == 0
    out = capsys.readouterr().out
    assert "velocity tensor" in out
    assert "pressure vector" in out
    assert len(out.strip().splitlines()) == 6


def test_cli_kernels_rejects_origin(capsys):
    assert cli.main(["kernels", "--eval", "0,0,0", "--alpha", "1.0"]) == 2
    assert "singular" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_cli_kernels_rejects_nonfinite_alpha(capsys, alpha):
    assert cli.main(["kernels", "--eval", "1,0,0", "--alpha", alpha]) == 2
    assert "'alpha': must be finite" in capsys.readouterr().err


def test_cli_kernels_rejects_malformed_point():
    with pytest.raises(SystemExit) as info:
        cli.main(["kernels", "--eval", "1,2", "--alpha", "1.0"])
    assert info.value.code == 2


@pytest.mark.parametrize("setting", ["abc", "0", "-3"])
def test_cli_solve_invalid_thread_count_is_config_error(tmp_path, capsys,
                                                        monkeypatch, setting):
    monkeypatch.setenv("BBEM_THREADS", setting)
    code = cli.main(["solve", "--config", _write_config(tmp_path, RUN),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "BBEM_THREADS" in err
    assert repr(setting) in err
