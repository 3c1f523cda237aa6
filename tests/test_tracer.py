"""The benchmark's layer tracer (perfbench/tracer.py) must still find every
library function and method it names, and its observers must accept what
those functions return, so that renaming, deleting or reshaping one fails
here and not only in a traced benchmark run."""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402

from gradedtwist.enriched import build_RS, gamma_algebra, module_hom_space  # noqa: E402
from gradedtwist.fixtures import F7, quantum_plane, s3_group_algebra  # noqa: E402
from gradedtwist.graded import regular_module  # noqa: E402


def _holder(owner, attr):
    module = importlib.import_module(f"gradedtwist.{owner}")
    if "." in attr:
        cls_name, method = attr.split(".")
        return getattr(module, cls_name), method
    return module, attr


def test_install_rebinds_every_target_and_uninstall_restores_it():
    targets = [_holder(owner, attr) for _name, owner, attr, _kind, _observe in tracer.TARGETS]
    originals = [holder.__dict__[attr] for holder, attr in targets]
    modules = [importlib.import_module(f"gradedtwist.{m}") for m in tracer._MODULES]
    t = tracer.Tracer()
    t.install()
    try:
        for (holder, attr), original in zip(targets, originals):
            assert holder.__dict__[attr] is not original, (holder.__name__, attr)
        # no module keeps an untraced reference under an imported name
        for module in modules:
            for key, value in vars(module).items():
                assert not any(value is original for original in originals), (module.__name__, key)
    finally:
        t.uninstall()
    for (holder, attr), original in zip(targets, originals):
        assert holder.__dict__[attr] is original, (holder.__name__, attr)


def test_the_build_rs_observer_reads_the_difference_matrix():
    reg = regular_module(s3_group_algebra(F7))
    degrees = list(reg.group.elements())
    largest = max((build_RS(reg, reg, g)[0] for g in degrees), key=lambda d: d.rows * d.cols)
    t = tracer.Tracer()
    t.install()
    try:
        dims = [module_hom_space(reg, reg, g).dim for g in degrees]
    finally:
        t.uninstall()
    assert dims == [1] * 6
    stat = t.stats["enriched.build_RS"]
    assert stat.calls == len(degrees)
    assert stat.extra["max_shape"] == (largest.rows * largest.cols, f"{largest.rows}x{largest.cols}")
    metrics = t.layer_metrics(passes=1)
    assert metrics["enriched.build_RS.calls"] == (len(degrees), "count")
    assert metrics["enriched.build_RS.max_shape"] == (largest.rows * largest.cols, "entries")


def test_compose_homs_is_counted_once_per_pair_of_degrees():
    # composition takes whole basis families: one call per (g, h), h in the
    # generating degrees H = (1,), whose product degree has a nonzero Hom
    # space, not one per pair of elements; the other products are derived
    a = quantum_plane(3)[0]
    t = tracer.Tracer()
    t.install()
    try:
        gamma = gamma_algebra(a)
    finally:
        t.uninstall()
    pairs = [(g, h) for g in gamma.degrees for h in gamma.degrees
             if gamma.dim(g) and gamma.dim(h) and gamma.dim(g + h)]
    assert len(pairs) == 10  # g + h <= 3 on the degrees 0..3 of qp3
    assert sorted(gamma.graded.mult) == pairs
    composed = [(g, h) for g, h in pairs if h in a.generators]
    assert a.generators == (1,) and len(composed) == 3
    assert t.stats["enriched.compose_homs"].calls == len(composed)
    assert t.layer_metrics(passes=1)["enriched.compose_homs.calls"] == (len(composed), "count")


def test_the_check_inside_gamma_algebra_is_traced_as_check_algebra():
    a = quantum_plane(3)[0]
    t = tracer.Tracer()
    t.install()
    try:
        gamma_algebra(a)
    finally:
        t.uninstall()
    assert t.stats["graded.check_algebra"].calls == 1
