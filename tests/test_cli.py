import csv
import hashlib
import json
import math
import re
from pathlib import Path

import pytest

from cknlab import cli
from cknlab.cli import main
from cknlab.inequalities import CATALOG_IDS, evaluate

DISK_CONE_CFG = """
[ambient]
kind = euclidean

[geometry]
builtin = disk_mesh
radius = 1.0
rings = 12

[field]
kind = radial_power
dof = 1.0
boundary_vanishing = true

[inequality]
id = hardy
p = 1
gamma = 1
"""


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_constants_basic(capsys):
    code, out, _ = run(["constants", "--k", "3", "--p", "2"], capsys)
    assert code == 0
    assert "p_star" in out and "6" in out
    assert "S_kp" in out


def test_constants_alpha_zero_rows(capsys):
    code, out, _ = run(["constants", "--k", "3", "--p", "2", "--alpha", "0"],
                       capsys)
    assert code == 0
    lines = dict(line.split(None, 1) for line in out.strip().splitlines())
    assert float(lines["Gamma"]) == 1.0
    assert float(lines["Phi"]) == 0.0
    assert float(lines["Delta"]) == 0.0


def test_constants_nash_closure(capsys):
    code, out, _ = run(["constants", "--k", "3", "--p", "2", "--q", "1",
                        "--a", "0.6", "--alpha", "0", "--beta", "0",
                        "--sigma", "0", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["constants"]["t"] == 2.0
    assert data["schema_version"] == 1


def test_constants_t_closure_wins_over_a(capsys):
    # the catalog's ckn closure: with both --a and --t, (t, gamma) decides
    base = ["constants", "--k", "3", "--p", "2", "--q", "1", "--json"]
    by_t = ["--gamma", "1/2", "--t", "2"]
    outputs = [json.loads(run(base + extra, capsys)[1])["constants"]
               for extra in (["--a", "0.6"] + by_t, by_t, ["--a", "0.6"])]
    assert outputs[0] == outputs[1]
    assert outputs[0]["a"] == 0.8 and outputs[2]["a"] == 0.6


@pytest.mark.parametrize("flags,missing", [
    (["--a", "0.6", "--t", "2"], "needs --q"),
    (["--q", "1"], "needs --a or --t"),
    (["--q", "1", "--sigma", "0.5"], "needs --a or --t"),
], ids=["a_t_without_q", "q_alone", "q_sigma"])
def test_constants_incomplete_closure_is_an_error(capsys, flags, missing):
    code, out, err = run(["constants", "--k", "3", "--p", "2", *flags],
                         capsys)
    assert code == 1
    assert out == ""
    assert missing in err


def test_constants_invalid_exponents(capsys):
    code, _, err = run(["constants", "--k", "3", "--p", "0.5"], capsys)
    assert code == 1
    assert "p must be" in err


@pytest.mark.parametrize("k", ["abc", "2.5", "0", "-2"])
def test_constants_k_must_be_a_positive_integer(capsys, k):
    code, out, err = run(["constants", "--k", k, "--p", "1"], capsys)
    assert code == 1
    assert out == ""
    assert f"error: --k must be a positive integer, got {k!r}" in err
    assert "Traceback" not in err


def test_constants_rows_up_to_k_100_do_not_move(capsys):
    # every row of `constants --json` for k = 2..100, three p values and
    # both closures, as printed before the log-gamma ball volume
    digest = hashlib.sha256()
    for k in range(2, 101):
        for p in ("1", "3/2", "2"):
            for extra in (["--z", "1/3"],
                          ["--alpha", "1/4", "--sigma", "1/2"]):
                code, out, _ = run(["constants", "--k", str(k), "--p", p,
                                    *extra, "--json"], capsys)
                digest.update(f"{code}:{out}".encode())
    assert digest.hexdigest() == (
        "fd071fddb826a9753c1988462159d07532c6428b8e2a253d9b14ea2623737fa4")


@pytest.mark.parametrize("k,p", [("1000", "2"), ("1000", "3/2")])
def test_constants_at_large_k_are_finite(capsys, k, p):
    code, out, err = run(["constants", "--k", k, "--p", p, "--json"], capsys)
    assert code == 0 and err == ""
    rows = json.loads(out)["constants"]
    assert all(math.isfinite(rows[name]) for name in ("S_kp", "S_kp_flat"))


@pytest.mark.parametrize("k,p", [("1030", "2"), ("100000000000000000", "2"),
                                 ("500", "400")])
def test_constants_beyond_a_float_name_k(capsys, k, p):
    code, out, err = run(["constants", "--k", k, "--p", p], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and f"k = {k}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--p", "--alpha", "--hprime"])
def test_constants_overflowing_number_is_an_error(capsys, flag):
    args = {"--p": "2", "--alpha": "0", "--hprime": "1"}
    args[flag] = "1e400"
    code, out, err = run(["constants", "--k", "3",
                          *(x for item in args.items() for x in item)],
                         capsys)
    assert code == 1
    assert out == ""
    assert "cannot parse number '1e400'" in err


def test_verify_scenario_disk_equality(tmp_path, capsys):
    out_path = tmp_path / "out.json"
    code, _, _ = run(["verify", "disk_equality.cfg", "--out", str(out_path)],
                     capsys)
    assert code == 0
    data = json.loads(out_path.read_text())
    rec = data["records"][0]
    assert abs(rec["ratio"] - 1.0) < 1e-3


def test_verify_scenarios_pass(capsys):
    for scenario in ("hpw_disk.cfg", "nash_ball.cfg", "weighted_cap.cfg",
                     "geodesic_sobolev.cfg"):
        code, _, err = run(["verify", scenario], capsys)
        assert code == 0, (scenario, err)


def test_verify_invalid_gamma_fails_fast(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    # huge mesh: validation must reject before any geometry work
    cfg.write_text(DISK_CONE_CFG.replace("gamma = 1", "gamma = 2")
                   .replace("rings = 12", "rings = 4000"))
    code, _, err = run(["verify", str(cfg)], capsys)
    assert code == 1
    assert "gamma" in err and "dimension" in err


def test_verify_unknown_id(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(DISK_CONE_CFG.replace("id = hardy", "id = mystery"))
    code, _, err = run(["verify", str(cfg)], capsys)
    assert code == 1
    assert "unknown inequality id" in err


def test_verify_violation_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cone.cfg"
    cfg.write_text(DISK_CONE_CFG)
    # the cone case sits within a few permille of 1, so a tiny slack trips
    code, _, err = run(["verify", str(cfg), "--slack", "1e-9"], capsys)
    assert code == 2
    assert "violate" in err


def test_search_violation_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cone.cfg"
    cfg.write_text(DISK_CONE_CFG)
    code, _, err = run(["search", str(cfg), "--budget", "1", "--slack",
                        "1e-9"], capsys)
    assert code == 2
    assert re.fullmatch(r"search found ratio 1\.00\d+ beyond 1 \+ 1e-09\n",
                        err)


# a cap of the unit sphere has |H| = 2: its minimality check fails
MINIMAL_CAP_CFG = DISK_CONE_CFG.replace(
    "builtin = disk_mesh\nradius = 1.0\nrings = 12",
    "builtin = sphere_patch\ntheta1 = 1.0\ncells_theta = 2\ncells_phi = 4"
).replace("gamma = 1\n", "gamma = 1\nminimal = true\n")


def test_failed_minimality_check_is_a_numerical_failure(tmp_path, capsys):
    for code, out, err in _verify_and_search(tmp_path, capsys,
                                             MINIMAL_CAP_CFG):
        assert code == 3
        assert out == ""
        assert err == ("evaluation error: max |H| = 2.000e+00 exceeds the "
                       "minimality tolerance\n")


def test_verify_json_deterministic(tmp_path, capsys):
    cfg = tmp_path / "cone.cfg"
    cfg.write_text(DISK_CONE_CFG)
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code, _, _ = run(["verify", str(cfg), "--seed", "7", "--out", str(p)],
                         capsys)
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_verify_csv_output(tmp_path, capsys):
    cfg = tmp_path / "cone.cfg"
    cfg.write_text(DISK_CONE_CFG)
    csv_path = tmp_path / "rows.csv"
    code, _, _ = run(["verify", str(cfg), "--csv", str(csv_path)], capsys)
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("id,")
    assert len(lines) == 2


def test_search_refuses_csv(tmp_path, capsys):
    # a search writes no report rows, so it takes no --csv
    csv_path = tmp_path / "rows.csv"
    code, _, err = run(["search", "hardy_cone.cfg", "--budget", "1",
                        "--csv", str(csv_path)], capsys)
    assert code == 1
    assert "--csv" in err
    assert not csv_path.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "disk_equality", "--seed", "x"],
    ["verify", "disk_equality", "--no-such-flag"],
    ["constants", "--p", "2"],
], ids=["bad value", "unknown flag", "missing flag"])
def test_malformed_command_line_exits_1(argv, capsys):
    # exit 2 means an inequality violated beyond its slack
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == "" and "usage: ckn-lab" in err and "error:" in err


def test_help_exits_0(capsys):
    code, out, _ = run(["verify", "--help"], capsys)
    assert code == 0
    assert out.startswith("usage: ckn-lab verify")


def test_verify_csv_columns_equal_json_records(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(DISK_CONE_CFG.replace("rings = 12", "rings = 4")
                   + "\n[sweep]\ninequality.gamma = 0.5, 1.0\n")
    out_path, csv_path = tmp_path / "out.json", tmp_path / "rows.csv"
    code, _, _ = run(["verify", str(cfg), "--levels", "1", "--csv",
                      str(csv_path), "--out", str(out_path)], capsys)
    assert code == 0
    records = json.loads(out_path.read_text())["records"]
    with open(csv_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == len(records) == 4
    assert "level" in rows[0]
    for row, rec in zip(rows, records):
        for column, text in row.items():
            value = rec[column] if column in rec else rec["mesh_stats"][column]
            if isinstance(value, bool):
                value = int(value)
            assert text == str(value), column


def test_verify_sweep_section(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(DISK_CONE_CFG + """
[sweep]
inequality.gamma = 0.5, 1.0
field.kind = radial_power, radial_bump
""")
    out_path = tmp_path / "out.json"
    code, _, _ = run(["verify", str(cfg), "--out", str(out_path)], capsys)
    assert code == 0
    data = json.loads(out_path.read_text())
    assert len(data["records"]) == 4


def test_verify_levels_flag(tmp_path, capsys):
    cfg = tmp_path / "cone.cfg"
    cfg.write_text(DISK_CONE_CFG.replace("rings = 12", "rings = 4"))
    out_path = tmp_path / "out.json"
    code, _, _ = run(["verify", str(cfg), "--levels", "1",
                      "--out", str(out_path)], capsys)
    assert code == 0
    data = json.loads(out_path.read_text())
    assert [r["level"] for r in data["records"]] == [0, 1]


def test_search_scenario_budget_one(tmp_path, capsys):
    out_path = tmp_path / "out.json"
    code, _, _ = run(["search", "hardy_cone.cfg", "--budget", "1",
                      "--out", str(out_path)], capsys)
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["records"][0]["evaluations"] == 1


def test_search_scenario_finds_equality(tmp_path, capsys):
    out_path = tmp_path / "out.json"
    code, _, _ = run(["search", "hardy_cone.cfg", "--out", str(out_path)],
                     capsys)
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["records"][0]["best_ratio"] >= 0.99


def test_search_seeded_rerun_identical(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code, _, _ = run(["search", "hardy_cone.cfg", "--budget", "25",
                          "--seed", "9", "--out", str(p)], capsys)
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_list_scenarios(capsys):
    code, out, _ = run(["list-scenarios"], capsys)
    assert code == 0
    names = out.split()
    for expected in ("disk_equality.cfg", "hardy_cone.cfg", "hpw_disk.cfg"):
        assert expected in names


def test_missing_config(capsys):
    code, _, err = run(["verify", "no_such_config.cfg"], capsys)
    assert code == 1
    assert "not found" in err


def test_worker_count_env(monkeypatch):
    from cknlab.corpus import worker_count
    from cknlab.errors import ConfigError
    monkeypatch.setenv("CKN_LAB_THREADS", "2")
    assert worker_count() == 2
    # a value that is not a positive integer is refused, not replaced
    for bad in ("not-a-number", "0", "-1", "1.5", " 2"):
        monkeypatch.setenv("CKN_LAB_THREADS", bad)
        with pytest.raises(ConfigError, match="positive integer"):
            worker_count()
    monkeypatch.delenv("CKN_LAB_THREADS")
    assert worker_count() >= 1


CKN_BALL_CFG = """
[ambient]
kind = euclidean

[geometry]
builtin = ball
radius = 1.0
cells_r = 3
cells_theta = 3
cells_phi = 6

[field]
kind = radial_bump
dof = 1.0
boundary_vanishing = true

[inequality]
id = ckn
p = 1.5
q = 1.2
alpha = 0.1
beta = -0.4
sigma = 0.6
a = 0.5
"""


def test_verify_ckn_closure(tmp_path, capsys):
    cfg = tmp_path / "ckn.cfg"
    cfg.write_text(CKN_BALL_CFG)
    code, out, _ = run(["verify", str(cfg)], capsys)
    assert code == 0
    assert "ok ckn" in out


def test_verify_ckn_missing_key(tmp_path, capsys):
    cfg = tmp_path / "ckn.cfg"
    cfg.write_text(CKN_BALL_CFG.replace("q = 1.2\n", ""))
    code, _, err = run(["verify", str(cfg)], capsys)
    assert code == 1
    assert "missing key" in err


def test_verify_ckn_infeasible_sigma(tmp_path, capsys):
    cfg = tmp_path / "ckn.cfg"
    cfg.write_text(CKN_BALL_CFG.replace("sigma = 0.6", "sigma = 2.5"))
    code, _, err = run(["verify", str(cfg)], capsys)
    assert code == 1
    assert "invariant violated" in err


def test_verify_tabulated_profile_ambient(tmp_path, capsys):
    profile = tmp_path / "profile.txt"
    profile.write_text("0 1.0\n2 1.0\n")
    cfg = tmp_path / "warped.cfg"
    cfg.write_text(f"""
[ambient]
kind = warped
profile_file = {profile}
r_max = 1.4

[geometry]
builtin = geodesic_disk
radius = 0.5
cells_r = 6
cells_theta = 12

[field]
kind = radial_power
dof = 1.5
boundary_vanishing = true

[inequality]
id = hardy
p = 1.5
gamma = 1.0
r0 = 0.55
""")
    out_path = tmp_path / "out.json"
    code, _, _ = run(["verify", str(cfg), "--out", str(out_path)], capsys)
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["records"][0]["satisfied"] is True


SOBOLEV_CURVED_CFG = """
[ambient]
kind = warped
{curvature}
r_max = 1.55

[geometry]
builtin = geodesic_disk
radius = 0.9
cells_r = 8
cells_theta = 16

[field]
kind = radial_power
dof = 1.5
boundary_vanishing = true

[inequality]
id = sobolev_hs
p = 1.2
inj_radius = 3.141592653589793
"""


def test_sobolev_side_conditions_read_a_tabulated_curvature(tmp_path,
                                                            capsys):
    # the table holds curvature 1 everywhere: the constant profile's model
    # (its scale function integrated, so its volumes agree to roundoff),
    # so the same support-volume verdict
    profile = tmp_path / "profile.txt"
    profile.write_text("0 1\n2 1\n")
    statuses = []
    for curvature in ("curvature = 1.0", f"profile_file = {profile}"):
        cfg = tmp_path / "sobolev.cfg"
        cfg.write_text(SOBOLEV_CURVED_CFG.format(curvature=curvature))
        out_path = tmp_path / "out.json"
        code, _, _ = run(["verify", str(cfg), "--out", str(out_path)],
                         capsys)
        assert code == 0
        status = json.loads(out_path.read_text())["records"][0][
            "hypothesis_status"]
        statuses.append((status["status"], status["reasons"]))
    assert statuses[0] == statuses[1]
    assert statuses[0][0] == "unverified"
    assert "support volume too large for the curvature bound" in statuses[0][1]


@pytest.mark.parametrize("table", ["0 1\n1.6 1\n5 100\n", "0 1\n2 1\n"],
                         ids=["rising_beyond_r_max", "constant"])
def test_sobolev_curvature_bound_reads_the_profile_up_to_r_max(
        tmp_path, capsys, table):
    # curvature 1 on all of [0, r_max]; the first table rises only beyond
    profile = tmp_path / "profile.txt"
    profile.write_text(table)
    cfg = tmp_path / "sobolev.cfg"
    cfg.write_text(SOBOLEV_CURVED_CFG.format(
        curvature=f"profile_file = {profile}").replace("radius = 0.9",
                                                       "radius = 0.5"))
    out_path = tmp_path / "out.json"
    code, _, _ = run(["verify", str(cfg), "--out", str(out_path)], capsys)
    assert code == 0
    status = json.loads(out_path.read_text())["records"][0][
        "hypothesis_status"]
    assert status["status"] == "verified"


def test_verify_mesh_file_geometry(tmp_path, capsys):
    from cknlab.geometry.mesh import disk_mesh, write_mesh
    mesh_path = tmp_path / "disk.mesh"
    write_mesh(disk_mesh(1.0, rings=6), mesh_path)
    cfg = tmp_path / "file.cfg"
    cfg.write_text(f"""
[ambient]
kind = euclidean

[geometry]
path = {mesh_path}

[field]
kind = radial_power
dof = 1.0
boundary_vanishing = true

[inequality]
id = hardy
p = 1
gamma = 1
""")
    out_path = tmp_path / "out.json"
    code, _, _ = run(["verify", str(cfg), "--levels", "1",
                      "--out", str(out_path)], capsys)
    assert code == 0
    data = json.loads(out_path.read_text())
    ratios = [r["ratio"] for r in data["records"]]
    assert abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)


@pytest.mark.parametrize("kind", ["polynomial", "random_smooth"])
def test_mesh_file_has_no_clamp_for_a_planar_member(tmp_path, capsys, kind):
    # a file mesh records no generator, so a planar member that must vanish
    # on its boundary is refused before any integral, with a message
    from cknlab.geometry.mesh import disk_mesh, write_mesh
    mesh_path = tmp_path / "disk.mesh"
    write_mesh(disk_mesh(1.0, rings=4), mesh_path)
    text = (DISK_CONE_CFG
            .replace("builtin = disk_mesh\nradius = 1.0\nrings = 12",
                     f"path = {mesh_path}")
            .replace("kind = radial_power\ndof = 1.0", f"kind = {kind}"))
    assert f"path = {mesh_path}" in text and f"kind = {kind}" in text
    for code, _, err in _verify_and_search(tmp_path, capsys, text):
        assert code == 1
        assert ("no boundary-vanishing factor for generator 'file'"
                in err)
        assert "Traceback" not in err


# -- verify --levels and search --levels refine the level-0 domain one way

@pytest.mark.parametrize("geometry,exponents", [
    ("builtin = disk_mesh\nrings = 4", "p = 1\ngamma = 1"),
    ("builtin = graph_mesh\ndivisions = 4", "p = 1.5\ngamma = 0.5"),
], ids=["disk_mesh", "graph_mesh"])
def test_levels_evaluate_on_the_refined_domain(tmp_path, capsys, geometry,
                                               exponents):
    cfg = tmp_path / "case.cfg"
    cfg.write_text(DISK_CONE_CFG.replace(
        "builtin = disk_mesh\nradius = 1.0\nrings = 12", geometry).replace(
        "p = 1\ngamma = 1", exponents))
    case = cli.expand_sweep(cli.load_config(cfg))[0]
    parsed = cli.validate_case(case)
    refined = cli.build_domain(parsed.domain).refined()

    def on_refined(field):
        return evaluate(parsed.id, refined, field, parsed.options)

    code, out, _ = run(["verify", str(cfg), "--levels", "1", "--seed", "2",
                        "--json"], capsys)
    assert code == 0
    seeded = cli.validate_case(case, seed=2).field
    expected = {**on_refined(seeded).to_dict(),
                "level": 1, "seed": 2}
    assert (json.dumps(json.loads(out)["records"][1], sort_keys=True)
            == json.dumps(expected, sort_keys=True))

    code, out, _ = run(["search", str(cfg), "--levels", "1", "--budget", "6",
                        "--json"], capsys)
    assert code == 0
    record = json.loads(out)["records"][0]
    argmax = parsed.field.with_dof(record["argmax_dof"])
    assert record["refinement_trace"][1] == [
        1, on_refined(argmax).ratio]


# -- malformed values are configuration errors, found before geometry work

def _verify_and_search(tmp_path, capsys, text):
    cfg = tmp_path / "case.cfg"
    cfg.write_text(text)
    return [run([command, str(cfg), "--budget", "1"] if command == "search"
                else [command, str(cfg)], capsys)
            for command in ("verify", "search")]


def test_non_integer_ring_count_is_a_config_error(tmp_path, capsys):
    text = DISK_CONE_CFG.replace("rings = 12", "rings = many")
    for code, _, err in _verify_and_search(tmp_path, capsys, text):
        assert code == 1
        assert "rings" in err


def test_non_numeric_dof_is_a_config_error(tmp_path, capsys):
    text = DISK_CONE_CFG.replace("dof = 1.0", "dof = abc")
    for code, _, err in _verify_and_search(tmp_path, capsys, text):
        assert code == 1
        assert "dof" in err


def test_dof_length_checked_per_field_kind(tmp_path, capsys):
    # one dof fits the radial kinds; the polynomial member needs six
    text = DISK_CONE_CFG + "\n[sweep]\nfield.kind = radial_power, polynomial\n"
    for code, _, err in _verify_and_search(tmp_path, capsys, text):
        assert code == 1
        assert "polynomial takes 6 dof, got 1" in err


@pytest.mark.parametrize("line", ["radius = -1.0", "radius = 0",
                                  "rings = 0"])
def test_non_positive_size_is_a_config_error(tmp_path, capsys, line):
    option = line.split()[0]
    default = {"radius": "radius = 1.0", "rings": "rings = 12"}[option]
    text = DISK_CONE_CFG.replace(default, line)
    for code, _, err in _verify_and_search(tmp_path, capsys, text):
        assert code == 1
        assert f"{option} must be positive" in err


@pytest.mark.parametrize("axes", ["0 0 0 0 0 0", "1 0 0 1 0 0",
                                  "2 0 0 0 1 0", "1 0 0 0.5 0.5 0"])
def test_disk_axes_must_be_orthonormal(tmp_path, capsys, axes):
    text = DISK_CONE_CFG.replace("rings = 12", f"rings = 12\naxes = {axes}")
    for code, _, err in _verify_and_search(tmp_path, capsys, text):
        assert code == 1
        assert "config error: disk axes must be two orthonormal 3-vectors" in err


@pytest.mark.parametrize("geometry,message", [
    ("builtin = plane_rect\ncells = 7", "the pole falls inside a chart cell"),
    ("builtin = poly_graph\ncells = 7", "the pole falls inside a chart cell"),
    ("builtin = sphere_patch\ncenter = 1 0 0\ncells_theta = 7",
     "the pole falls inside a chart cell"),
    ("builtin = graph_mesh\ncoeffs = 0 0 0\ndivisions = 7",
     "the pole lies on the mesh but not at a vertex"),
], ids=["plane_rect", "poly_graph", "sphere_patch", "graph_mesh"])
def test_pole_off_the_grid_is_a_config_error(tmp_path, capsys, geometry,
                                             message):
    # an odd count puts the pole inside a chart cell or on a mesh edge,
    # where h^-1.5 is singular away from the rules' pole cells
    text = DISK_CONE_CFG.replace(
        "builtin = disk_mesh\nradius = 1.0\nrings = 12", geometry).replace(
        "p = 1\ngamma = 1", "p = 1.5\ngamma = 1.5")
    for code, _, err in _verify_and_search(tmp_path, capsys, text):
        assert code == 1
        assert "config error" in err and message in err


@pytest.mark.parametrize("geometry,message", [
    ("builtin = sphere_mesh\nlevel = 0",
     "sphere mesh: the curvature fit at vertex 0 takes a normal"),
    ("builtin = graph_mesh\ndivisions = 1",
     "graph mesh: vertex 0 has 3 stencil neighbours, needs 6"),
], ids=["icosahedron", "one_division"])
def test_mesh_too_coarse_for_the_fit_is_a_config_error(tmp_path, capsys,
                                                       geometry, message):
    text = DISK_CONE_CFG.replace(
        "builtin = disk_mesh\nradius = 1.0\nrings = 12", geometry).replace(
        "p = 1\ngamma = 1", "p = 1.5\ngamma = 0.5").replace(
        "boundary_vanishing = true", "boundary_vanishing = false")
    for code, _, err in _verify_and_search(tmp_path, capsys, text):
        assert code == 1
        assert "config error" in err and message in err
        assert "Traceback" not in err


def test_negative_slack_is_a_config_error(tmp_path, capsys):
    text = DISK_CONE_CFG + "slack = -1\n"
    for code, _, err in _verify_and_search(tmp_path, capsys, text):
        assert code == 1
        assert "config error: [inequality] slack must be >= 0" in err
    cfg = tmp_path / "case.cfg"
    cfg.write_text(DISK_CONE_CFG)
    for argv in (["verify", str(cfg)], ["search", str(cfg), "--budget", "1"]):
        code, _, err = run(argv + ["--slack", "-1"], capsys)
        assert code == 1
        assert "config error: --slack must be >= 0" in err


# a random_smooth member without dof draws its coefficients from --seed
SMOOTH_CFG = DISK_CONE_CFG.replace("rings = 12", "rings = 4").replace(
    "kind = radial_power\ndof = 1.0", "kind = random_smooth")


@pytest.mark.parametrize("command,flag,value", [
    ("verify", "--levels", "-1"), ("search", "--levels", "-1"),
    ("verify", "--seed", "-1"), ("search", "--seed", "-1"),
    ("search", "--budget", "0"),
])
def test_out_of_range_flag_is_a_config_error(tmp_path, capsys, command,
                                             flag, value):
    cfg = tmp_path / "case.cfg"
    cfg.write_text(SMOOTH_CFG)
    code, out, err = run([command, str(cfg), flag, value], capsys)
    assert code == 1
    assert out == ""
    assert f"config error: {flag} must be >= " in err


def test_unknown_ambient_kind_is_a_config_error(tmp_path, capsys):
    text = DISK_CONE_CFG.replace("kind = euclidean", "kind = hyperbolic")
    for code, _, err in _verify_and_search(tmp_path, capsys, text):
        assert code == 1
        assert "[ambient] kind" in err


# -- search judges its best ratio by the report's slack policy

COARSE_PATCH_CFG = """
[geometry]
builtin = flat_disk_patch
radius = 1.0
cells_r = 2
cells_theta = 4
quadrature_order = 3

[field]
kind = radial_power
dof = 0.5

[inequality]
id = hardy
p = 1
gamma = 1
"""


def test_search_uses_the_report_slack(tmp_path, capsys):
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text(COARSE_PATCH_CFG)
    code, out, _ = run(["verify", str(cfg), "--json"], capsys)
    assert code == 0
    report = json.loads(out)["records"][0]
    # coarse quadrature: past the 5e-2 floor, inside 3 * quadrature_error
    assert 1.05 < report["ratio"] <= 1.0 + report["slack"]
    code, out, _ = run(["search", str(cfg), "--budget", "1", "--json"],
                       capsys)
    assert code == 0
    record = json.loads(out)["records"][0]
    assert record["best_ratio"] == report["ratio"]
    assert record["slack"] == report["slack"]


# -- every catalog hypothesis is checked before any geometry work

CKN_SINGLE_CFG = DISK_CONE_CFG.replace(
    "id = hardy\np = 1\ngamma = 1",
    "id = ckn_single\np = 1.2\nalpha = 0.1\nsigma = 3.0")


def test_ckn_single_infeasible_sigma_is_a_config_error(tmp_path, capsys):
    for code, _, err in _verify_and_search(tmp_path, capsys, CKN_SINGLE_CFG):
        assert code == 1
        assert "sigma must lie in [alpha, alpha + 1]" in err


def _never_build(case, level=0):
    raise AssertionError("geometry built for an invalid case")


@pytest.mark.parametrize("builtin,ineq", [
    ("ball", "id = nash\np = 3"),
    ("flat_disk_patch", "id = hardy_hadamard\np = 2.5\ngamma = 0.5"),
])
def test_catalog_check_runs_before_geometry(tmp_path, capsys, monkeypatch,
                                            builtin, ineq):
    monkeypatch.setattr(cli, "build_domain", _never_build)
    text = (DISK_CONE_CFG.replace("builtin = disk_mesh", f"builtin = {builtin}")
            .replace("rings = 12\n", "")
            .replace("id = hardy\np = 1\ngamma = 1", ineq))
    for code, _, err in _verify_and_search(tmp_path, capsys, text):
        assert code == 1
        assert "invariant violated" in err


@pytest.mark.parametrize("old,new,message", [
    ("dof = 1.0", "dof = 0.3",
     "[field] dof: radial power exponent must be >= 0.5, got 0.3"),
    ("kind = radial_power\ndof = 1.0", "kind = radial_bump\ndof = 0",
     "[field] dof: bump steepness must be positive, got 0.0"),
    ("kind = radial_power\ndof = 1.0", "kind = radial_bump\ndof = -1",
     "[field] dof: bump steepness must be positive, got -1.0"),
    ("builtin = disk_mesh\nradius = 1.0\nrings = 12",
     "builtin = sphere_mesh\nlevel = -1",
     "[geometry] level must be at least 0, got -1"),
])
def test_out_of_range_value_is_found_before_geometry(tmp_path, capsys,
                                                     monkeypatch, old, new,
                                                     message):
    # a radial dof outside its family's domain and a negative sphere level
    monkeypatch.setattr(cli, "build_domain", _never_build)
    text = DISK_CONE_CFG.replace(old, new)
    assert new in text
    for code, _, err in _verify_and_search(tmp_path, capsys, text):
        assert code == 1
        assert message in err


@pytest.mark.parametrize("old,new,message", [
    ("rings = 12", "ring = 3", "[geometry] unknown option 'ring'"),
    ("gamma = 1", "gamma = 1\nslak = 1e-9",
     "[inequality] unknown option 'slak'"),
    ("[field]", "[feild]", "unknown section [feild]"),
    ("[field]", "[DEFAULT]\nrings = 4\n\n[field]",
     "unknown section [DEFAULT]"),
])
def test_misspelled_name_is_found_before_geometry(tmp_path, capsys,
                                                  monkeypatch, old, new,
                                                  message):
    # read silently, each would leave its default in place
    monkeypatch.setattr(cli, "build_domain", _never_build)
    text = DISK_CONE_CFG.replace(old, new)
    assert new in text
    for code, _, err in _verify_and_search(tmp_path, capsys, text):
        assert code == 1
        assert message in err


def test_unknown_builtin_is_a_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_domain", _never_build)
    text = DISK_CONE_CFG.replace("builtin = disk_mesh", "builtin = torus")
    for code, _, err in _verify_and_search(tmp_path, capsys, text):
        assert code == 1
        assert err == ("config error: unknown geometry builtin 'torus'; "
                       f"choices: {sorted(cli.BUILTINS)}\n")


# -- booleans take configparser's words; anything else is refused

@pytest.mark.parametrize("word,value", [
    ("1", True), ("Yes", True), ("TRUE", True), ("on", True),
    ("0", False), ("no", False), ("False", False), ("OFF", False)])
def test_boolean_words(tmp_path, word, value):
    cfg = tmp_path / "case.cfg"
    cfg.write_text(DISK_CONE_CFG.replace(
        "boundary_vanishing = true", f"boundary_vanishing = {word}")
        + f"minimal = {word}\n")
    parsed = cli.validate_case(cli.expand_sweep(cli.load_config(cfg))[0])
    assert parsed.field.boundary_vanishing is value
    assert parsed.options["minimal"] is value


@pytest.mark.parametrize("old,new,message", [
    ("boundary_vanishing = true", "boundary_vanishing = ture",
     "[field] boundary_vanishing = 'ture': must be one of 1, yes, true, on, "
     "0, no, false, off"),
    ("gamma = 1\n", "gamma = 1\nminimal = yse\n",
     "[inequality] minimal = 'yse': must be one of 1, yes, true, on, 0, no, "
     "false, off"),
], ids=["boundary_vanishing", "minimal"])
def test_malformed_boolean_is_a_config_error(tmp_path, capsys, monkeypatch,
                                             old, new, message):
    monkeypatch.setattr(cli, "build_domain", _never_build)
    text = DISK_CONE_CFG.replace(old, new)
    assert new in text
    for code, _, err in _verify_and_search(tmp_path, capsys, text):
        assert code == 1
        assert err == f"config error: {message}\n"


# -- [geometry] poly: natural exponents, each pair once

POLY_CFG = DISK_CONE_CFG.replace(
    "builtin = disk_mesh\nradius = 1.0\nrings = 12",
    "builtin = poly_graph\ncells = 4\npoly = {poly}")


def test_poly_reaches_the_patch(tmp_path, capsys, monkeypatch):
    seen = []
    real = cli.poly_graph_patch

    def recording(ambient, poly, half_width, cells):
        seen.append(poly)
        return real(ambient, poly, half_width, cells)

    monkeypatch.setattr(cli, "poly_graph_patch", recording)
    cfg = tmp_path / "poly.cfg"
    cfg.write_text(POLY_CFG.format(poly="2 0 0.25; 1 1 -0.5 ;0 3 1e-1"))
    code, _, _ = run(["verify", str(cfg)], capsys)
    assert code == 0
    assert seen == [{(2, 0): 0.25, (1, 1): -0.5, (0, 3): 0.1}]


@pytest.mark.parametrize("poly,message", [
    ("-1 0 1", "term '-1 0 1' has a negative exponent"),
    ("2 0 1; 0 -2 1", "term '0 -2 1' has a negative exponent"),
    ("2 0 1; 2 0 3",
     "term '2 0 3' repeats the exponents of an earlier term"),
    ("2 0", "term '2 0' must be 'i j coefficient'"),
    ("2 0 1;", "term '' must be 'i j coefficient'"),
    ("2 0.5 1", "term '2 0.5 1' must be 'i j coefficient'"),
    ("2 0 nan", "'nan' is not finite"),
], ids=["negative", "negative_second", "repeated", "two_fields",
        "empty_term", "fractional_exponent", "nan_coefficient"])
def test_malformed_poly_is_a_config_error(tmp_path, capsys, monkeypatch,
                                          poly, message):
    monkeypatch.setattr(cli, "build_domain", _never_build)
    for code, _, err in _verify_and_search(tmp_path, capsys,
                                           POLY_CFG.format(poly=poly)):
        assert code == 1
        assert err == f"config error: [geometry] poly = {poly!r}: {message}\n"


@pytest.mark.parametrize("value", ["abc", "0"])
def test_verify_refuses_a_malformed_thread_count(tmp_path, capsys,
                                                 monkeypatch, value):
    monkeypatch.setattr(cli, "build_domain", _never_build)
    monkeypatch.setenv("CKN_LAB_THREADS", value)
    cfg = tmp_path / "case.cfg"
    cfg.write_text(DISK_CONE_CFG)
    code, _, err = run(["verify", str(cfg)], capsys)
    assert code == 1
    assert err == ("config error: CKN_LAB_THREADS must be a positive "
                   f"integer, got {value!r}\n")


def test_vol_threshold_is_an_unknown_option(tmp_path, capsys):
    # every domain has k <= 3, below the k >= 7 branch it was read by
    text = DISK_CONE_CFG.replace("rings = 12", "rings = 4").replace(
        "gamma = 1", "gamma = 1\nvol_threshold = 5")
    for code, _, err in _verify_and_search(tmp_path, capsys, text):
        assert code == 1
        assert "[inequality] unknown option 'vol_threshold'" in err


def test_search_refuses_a_start_outside_its_box(tmp_path, capsys,
                                                monkeypatch):
    text = DISK_CONE_CFG.replace("rings = 12", "rings = 4").replace(
        "dof = 1.0", "dof = 20")
    cfg = tmp_path / "case.cfg"
    cfg.write_text(text)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "build_domain", _never_build)
        code, _, err = run(["search", str(cfg), "--budget", "1"], capsys)
    assert code == 1
    assert "radial_power search bounds [0.5, 8]" in err
    # verify evaluates the member as given
    evaluated = []

    def recording(ineq_id, domain, field, options):
        evaluated.append(field.dof)
        return evaluate(ineq_id, domain, field, options)

    monkeypatch.setattr(cli, "evaluate", recording)
    code, _, _ = run(["verify", str(cfg)], capsys)
    assert code == 0 and evaluated == [(20.0,)]


# -- the README describes the catalog and the geometry registry

def _readme():
    return (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_lists_the_catalog_ids():
    section = _readme().split("### Inequality catalog ids", 1)[1]
    section = section.strip().split("\n\n", 1)[0]
    assert tuple(re.findall(r"`(\w+)`", section)) == CATALOG_IDS


def test_readme_lists_the_geometry_builtins():
    # the comment after `builtin =` runs on while a line ends with "|"
    lines = iter(_readme().split("builtin = ", 1)[1].splitlines())
    comment = next(lines).split("#", 1)[1].strip()
    while comment.endswith("|"):
        comment += " " + next(lines).split("#", 1)[1].strip()
    names = [name.strip() for name in comment.split("|")]
    assert sorted(names) == sorted(cli.BUILTINS)
    # the options table: one row per builtin with its k and option names
    rows = re.findall(r"^\| `(\w+)` \| (\d) \| (.*) \|$", _readme(), re.M)
    table = {name: (int(k), re.findall(r"`(\w+)`", options))
             for name, k, options in rows}
    assert table == {name: (b.k, list(b.options))
                     for name, b in cli.BUILTINS.items()}


# -- a [geometry] path and the quadrature order are checked in the config
# stage, before any geometry work

MESH_FILE_CFG = DISK_CONE_CFG.replace(
    "builtin = disk_mesh\nradius = 1.0\nrings = 12", "path = {path}")


@pytest.mark.parametrize("content,message", [
    (None, "cannot read mesh file"),
    ("3 1 0\n", "header declares 3 vertices, 1 cells and 0 boundary facets, "
                "but 0 rows follow"),
    ("", "is empty"),
    ("3 1 0\n0 0 0\n1 0 0\n0 1 0\n0 1 3\n", "names no vertex"),
    ("3 1 0\n0 0 0\n1 0\n0 1 0\n0 1 2\n", "malformed vertex rows"),
    ("3 1 0\n0 0\n1 0\n0 1\n0 1 2\n", "2-d vertices in a 3-d ambient"),
], ids=["missing", "header_only", "empty", "bad_index", "ragged",
        "planar_vertices"])
def test_malformed_mesh_file_is_a_config_error(tmp_path, capsys, monkeypatch,
                                               content, message):
    monkeypatch.setattr(cli, "build_domain", _never_build)
    path = tmp_path / "cells.mesh"
    if content is not None:
        path.write_text(content)
    text = MESH_FILE_CFG.format(path=path)
    for code, _, err in _verify_and_search(tmp_path, capsys, text):
        assert code == 1
        assert "[geometry] path" in err and message in err


# a tetrahedron, and a polyline from the pole (vertex 0 at the origin)
UNSUPPORTED_MESHES = {
    "tetrahedra": ("4 1 4\n0.3 0.3 0.3\n1.3 0.3 0.3\n0.3 1.3 0.3\n"
                   "0.3 0.3 1.3\n0 1 2 3\n0 1 2\n0 1 3\n0 2 3\n1 2 3\n",
                   "simplicial meshes of dimension 3 are unsupported"),
    "polyline_through_pole": (
        "9 8 2\n" + "".join(f"{t} {t * t} 0\n" for t in range(9))
        + "".join(f"{i} {i + 1}\n" for i in range(8)) + "0\n8\n",
        "no pole rule for a 1-dimensional domain"),
}


@pytest.mark.parametrize("name", sorted(UNSUPPORTED_MESHES))
def test_unsupported_mesh_is_a_config_error(tmp_path, capsys, name):
    content, message = UNSUPPORTED_MESHES[name]
    path = tmp_path / "cells.mesh"
    path.write_text(content)
    text = (MESH_FILE_CFG.format(path=path)
            .replace("boundary_vanishing = true", "boundary_vanishing = false")
            .replace("p = 1\ngamma = 1", "p = 1\ngamma = 0.5"))
    for code, _, err in _verify_and_search(tmp_path, capsys, text):
        assert code == 1
        assert "config error" in err and message in err


def test_quadrature_order_one_is_a_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_domain", _never_build)
    text = DISK_CONE_CFG.replace("rings = 12",
                                 "rings = 12\nquadrature_order = 1")
    for code, _, err in _verify_and_search(tmp_path, capsys, text):
        assert code == 1
        assert "quadrature_order must be at least 2, got 1" in err


PROFILE_CFG = """
[ambient]
kind = warped
profile_file = {path}
r_max = 1.4

[geometry]
builtin = geodesic_disk
radius = 0.5
cells_r = 2
cells_theta = 4

[field]
kind = radial_power
dof = 1.5

[inequality]
id = hardy
p = 1.5
gamma = 1.0
r0 = 0.55
"""


@pytest.mark.parametrize("content,message", [
    (None, "cannot read profile file"),
    ("0 1.0\n1 abc\n", "each row must be two numbers"),
    ("0 1.0 2.0\n", "each row must be two numbers"),
    ("0 1.0\n", "needs at least two samples"),
], ids=["missing", "non_numeric", "three_columns", "one_sample"])
def test_malformed_profile_file_is_a_config_error(tmp_path, capsys,
                                                  monkeypatch, content,
                                                  message):
    monkeypatch.setattr(cli, "build_domain", _never_build)
    path = tmp_path / "profile.txt"
    if content is not None:
        path.write_text(content)
    text = PROFILE_CFG.format(path=path)
    for code, _, err in _verify_and_search(tmp_path, capsys, text):
        assert code == 1
        assert "config error: [ambient] profile_file" in err
        assert message in err


@pytest.mark.parametrize("old,new,message", [
    ("gamma = 1\n", "gamma = 1\nr0 = 1e400\n", "number '1e400'"),
    ("radius = 1.0", "radius = 1e400", "radius = '1e400' is not a finite"),
    ("radius = 1.0", "radius = nan", "radius = 'nan' is not a finite"),
    ("rings = 12", "rings = 12\ncenter = 0 0 inf", "'inf' is not finite"),
    ("dof = 1.0", "dof = nan", "dof = 'nan' is not a finite"),
    ("dof = 1.0", "dof = 1.0\nseed = -1", "seed must be at least 0"),
    ("gamma = 1\n", "gamma = 1\n[run]\nbudget = many\n",
     "[run] budget = 'many' is not an integer"),
    ("gamma = 1\n", "gamma = 1\n[run]\nbudget = 0\n",
     "[run] budget must be positive, got 0"),
], ids=["r0_overflow", "radius_overflow", "radius_nan", "center_inf",
        "dof_nan", "negative_seed", "budget_many", "budget_zero"])
def test_malformed_number_is_a_config_error(tmp_path, capsys, monkeypatch,
                                            old, new, message):
    monkeypatch.setattr(cli, "build_domain", _never_build)
    text = DISK_CONE_CFG.replace(old, new, 1)
    for code, _, err in _verify_and_search(tmp_path, capsys, text):
        assert code == 1
        assert "config error" in err and message in err


def test_mesh_in_an_ambient_of_another_dimension_is_a_config_error(
        tmp_path, capsys):
    # disk_mesh makes 3-d vertices; the domain refuses them in a 2-d ambient
    text = DISK_CONE_CFG.replace("kind = euclidean",
                                 "kind = euclidean\ndim = 2")
    for code, _, err in _verify_and_search(tmp_path, capsys, text):
        assert code == 1
        assert ("config error: the mesh has 3-d vertices in a 2-d ambient"
                in err)


# -- search builds one domain per run of cases on the same geometry

FIELD_KINDS = ("radial_power", "radial_bump", "polynomial", "random_smooth")


def _search_records(tmp_path, capsys, text, name):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text)
    code, out, _ = run(["search", str(cfg), "--budget", "12", "--seed", "3",
                        "--json"], capsys)
    assert code == 0
    return json.loads(out)["records"]


@pytest.mark.parametrize("sweep,builds", [
    ("field.kind = " + ", ".join(FIELD_KINDS), 1),
    ("geometry.rings = 6, 8\nfield.kind = radial_power, polynomial", 2),
], ids=["one_geometry", "two_geometries"])
def test_search_reuses_the_domain_of_a_geometry(tmp_path, capsys, monkeypatch,
                                                sweep, builds):
    base = (DISK_CONE_CFG.replace("rings = 12", "rings = 6")
            .replace("kind = radial_power\ndof = 1.0\n", ""))
    built = []
    real_build = cli.build_domain

    def counting_build(spec):
        built.append(spec.geometry["rings"])
        return real_build(spec)

    monkeypatch.setattr(cli, "build_domain", counting_build)
    records = _search_records(tmp_path, capsys, base + "\n[sweep]\n" + sweep,
                              "sweep")
    assert len(built) == builds
    # each case on a domain of its own gives the same records
    cases = [(rings, kind) for rings in sorted(set(built))
             for kind in (FIELD_KINDS if builds == 1
                          else ("radial_power", "polynomial"))]
    assert len(records) == len(cases)
    for rec, (rings, kind) in zip(records, cases):
        alone = base.replace("rings = 6", f"rings = {rings}").replace(
            "[field]\n", f"[field]\nkind = {kind}\n")
        assert _search_records(tmp_path, capsys, alone, "alone") == [rec]
    assert len(built) == builds + len(cases)


# -- the config stage reads each file and builds each field once per case

def _counting(calls, name, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return counted


@pytest.mark.parametrize("source", ["path", "profile_file"])
@pytest.mark.parametrize("command", ["verify", "search"])
def test_each_case_reads_its_file_and_builds_its_field_once(
        tmp_path, capsys, monkeypatch, source, command):
    from collections import Counter
    from cknlab.geometry.mesh import disk_mesh, write_mesh
    calls = Counter()
    for name in ("read_mesh", "load_profile", "make_field"):
        monkeypatch.setattr(cli, name, _counting(calls, name,
                                                 getattr(cli, name)))
    if source == "path":
        path = tmp_path / "disk.mesh"
        write_mesh(disk_mesh(1.0, rings=4), path)
        text, reader = MESH_FILE_CFG.format(path=path), "read_mesh"
    else:
        path = tmp_path / "profile.txt"
        path.write_text("0 1.0\n2 1.0\n")
        text, reader = PROFILE_CFG.format(path=path), "load_profile"
    cfg = tmp_path / "case.cfg"
    cfg.write_text(text)
    code, _, _ = run([command, str(cfg), "--budget", "2"]
                     if command == "search" else [command, str(cfg)], capsys)
    assert code == 0
    assert calls == {reader: 1, "make_field": 1}


# -- a seeded config fuzz ends in an exit code, never in a traceback

# the options validate_case reads, in a fixed order
FUZZ_KEYS = {
    "ambient": [*cli._AMBIENT],
    "geometry": list(dict.fromkeys(
        ["builtin", *cli._PATH,
         *(o for b in cli.BUILTINS.values() for o in b.options)])),
    "inequality": [*cli._INEQUALITY],
    "field": [*cli._FIELD],
    "run": [*cli._RUN],
}
FUZZ_NUMBERS = ["1", "0.5", "1.5", "2", "0", "-1", "abc", "1e400", "nan"]
# every builtin at a few cells, whichever the fuzz switches to
FUZZ_SIZES = {"rings": "2", "level": "0", "divisions": "2", "cells": "2",
              "cells_r": "1", "cells_theta": "2", "cells_phi": "4"}
FUZZ_BASES = [
    {"ambient": {"kind": "euclidean"},
     "geometry": {"builtin": name, **FUZZ_SIZES},
     "inequality": {"id": "hardy", "p": "1.5", "gamma": "0.5"}}
    for name in sorted(cli.BUILTINS) if name != "geodesic_disk"] + [
    {"ambient": {"kind": "warped", "r_max": "1.2"},
     "geometry": {"builtin": "geodesic_disk", "radius": "0.5", **FUZZ_SIZES},
     "inequality": {"id": "hardy", "p": "1.5", "gamma": "0.5",
                    "r0": "0.55", "inj_radius": "3"}}]


def _fuzz_value(rng, section, key, paths):
    names = {("ambient", "kind"): ["euclidean", "warped"],
             ("geometry", "builtin"): sorted(cli.BUILTINS),
             ("inequality", "id"): list(CATALOG_IDS),
             ("field", "kind"): sorted(cli.FAMILIES)}
    if (section, key) in names:
        return rng.choice(names[section, key] + ["abc"])
    if key in ("path", "profile_file"):
        return rng.choice(paths)
    if key in ("center", "coeffs", "axes", "dof"):
        return " ".join(rng.choice(FUZZ_NUMBERS)
                        for _ in range(rng.randint(1, 6)))
    if key == "poly":
        return rng.choice(["2 0 0.25; 0 2 -0.15", "2 0", "1 1 1e400"])
    return rng.choice(FUZZ_NUMBERS)


def test_config_fuzz_never_ends_in_a_traceback(tmp_path, capsys):
    import random
    from cknlab.geometry.mesh import disk_mesh, write_mesh
    write_mesh(disk_mesh(1.0, rings=2), tmp_path / "disk.mesh")
    (tmp_path / "profile.txt").write_text("0 1.0\n2 1.0\n")
    paths = [str(tmp_path / name) for name in ("disk.mesh", "profile.txt",
                                               "missing", "")]
    rng = random.Random(0)
    cfg = tmp_path / "case.cfg"
    codes = set()
    for _ in range(200):
        case = {section: dict(opts)
                for section, opts in rng.choice(FUZZ_BASES).items()}
        for _ in range(rng.randint(1, 4)):
            section = rng.choice(sorted(FUZZ_KEYS))
            key = rng.choice(FUZZ_KEYS[section])
            if rng.random() < 0.15:
                case.get(section, {}).pop(key, None)
            else:
                case.setdefault(section, {})[key] = _fuzz_value(
                    rng, section, key, paths)
        text = "".join(f"[{section}]\n" + "".join(
            f"{key} = {value}\n" for key, value in opts.items()) + "\n"
            for section, opts in case.items())
        cfg.write_text(text)
        for argv in (["verify", str(cfg)],
                     ["search", str(cfg), "--budget", "2"]):
            try:
                code = main(argv)
            except Exception as exc:
                pytest.fail(f"{argv[0]} raised {exc!r} on\n{text}")
            capsys.readouterr()
            assert code in (0, 1, 2, 3), text
            codes.add(code)
    # the draws reach the evaluations, not only the config checks
    assert {0, 1} <= codes
