"""The benchmark's tracer still finds every name it wraps.

``bench/tracer.py`` replaces functions and methods of ``cknlab`` by name
and reads methods from the class ``__dict__``, so a refactor that drops or
moves one of them breaks ``bench/run.py --trace 1``.  This test installs
the tracer on the program, runs one evaluation through the wrappers and
checks that uninstalling restores every original.  A traced ``verify``
of a mesh file shows the config stage reading the mesh, once.
"""

import sys
from pathlib import Path

import numpy as np

# every module the tracer wraps, loaded before the first snapshot
import cknlab.cli  # noqa: F401
import cknlab.corpus  # noqa: F401
from cknlab import inequalities
from cknlab.geometry import AmbientSpace, Domain, disk_mesh, patch
from cknlab.geometry.fields import make_field
from cknlab.geometry.mesh import write_mesh

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _program_names():
    """Every module attribute and class attribute of the loaded cknlab."""
    names = {}
    for modname, mod in list(sys.modules.items()):
        if modname != "cknlab" and not modname.startswith("cknlab."):
            continue
        for name, value in list(vars(mod).items()):
            names[modname, name] = value
            if isinstance(value, type) and value.__module__ == modname:
                for attr, member in list(vars(value).items()):
                    names[modname, name, attr] = member
    return names


def test_tracer_installs_and_uninstalls_on_the_program(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    domain = Domain(disk_mesh(1.0, rings=4), AmbientSpace.euclidean(3))
    before = _program_names()
    tracer = Tracer()
    tracer.install()
    try:
        inequalities.evaluate("hardy", domain,
                              make_field("radial_power", (1.0,)),
                              {"p": 1.0, "gamma": 1.0})
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    after = _program_names()
    assert before.keys() == after.keys()
    assert [key for key in before if after[key] is not before[key]] == []
    assert metrics["inequalities.evaluate_calls"] == 1
    assert metrics["fields.bind_calls"] == 1
    # bands 1 and 0 and the cells at the pole, high and low rule each
    assert metrics["fields.at_sites_calls"] == 6
    assert metrics["domain.weighted_integral_calls"] == 4
    assert metrics["domain.boundary_integral_calls"] == 1


def test_tracer_counts_each_chart_jet_once(monkeypatch):
    # plane_rect and poly_graph_patch share a builder, not each other: a
    # wrapped generator calling the other would count its jet twice
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    euclid = AmbientSpace.euclidean(3)
    tracer = Tracer()
    tracer.install()
    try:
        for chart in (patch.plane_rect(euclid),
                      patch.poly_graph_patch(euclid, {(2, 0): 0.25})):
            chart.jet(np.zeros((5, 2)))
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert metrics["patch.jet_calls"] == 2
    assert metrics["patch.jet_points"] == 10


def test_tracer_sees_the_config_stage_read_a_mesh_once(tmp_path, capsys,
                                                       monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    mesh_path = tmp_path / "disk.mesh"
    write_mesh(disk_mesh(1.0, rings=4), mesh_path)
    cfg = tmp_path / "file.cfg"
    cfg.write_text(f"[geometry]\npath = {mesh_path}\n\n"
                   "[field]\nkind = radial_power\ndof = 1.0\n\n"
                   "[inequality]\nid = hardy\np = 1\ngamma = 1\n")
    tracer = Tracer()
    tracer.install()
    try:
        code = cknlab.cli.main(["verify", str(cfg)])
    finally:
        tracer.uninstall()
    assert code == 0 and capsys.readouterr().out.startswith("ok hardy")
    names = [span[0] for span in tracer.spans]
    assert names.count("mesh.generate") == 1
    assert names.count("cli.build_domain") == 1
    reads = names.index("mesh.generate")
    parent = tracer.spans[reads][3]
    assert tracer.spans[parent][0] == "cli.config"
