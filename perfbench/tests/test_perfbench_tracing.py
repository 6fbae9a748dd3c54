"""The trace shim: spans, self time, and exact restoration of originals."""

from __future__ import annotations

import gzip
import types

import pytest

from perfbench.tracing import Target, TraceShim, Tracer


class Widget:
    def outer(self, n):
        return sum(self.inner(i) for i in range(n))

    def inner(self, i):
        return i

    def twice(self, x):
        return 2 * x

    def items(self, n):
        return iter(range(n))


def _module():
    module = types.ModuleType("shim_target_module")
    module.helper = lambda x: x + 1
    return module


def _originals(targets):
    return [vars(target.owner)[target.attr] for target in targets]


def _targets(module):
    return [
        Target(Widget, "outer", "outer"),
        Target(Widget, "inner", "inner"),
        Target(Widget, "twice", "twice"),
        Target(Widget, "items", "items", iterator=True),
        Target(module, "helper", "helper"),
    ]


def test_shim_restores_the_very_originals_on_normal_exit():
    module = _module()
    targets = _targets(module)
    before = _originals(targets)
    with TraceShim(Tracer(), targets):
        assert all(
            now is not then for now, then in zip(_originals(targets), before)
        )
    assert all(now is then for now, then in zip(_originals(targets), before))


def test_shim_restores_originals_when_the_body_raises():
    module = _module()
    targets = _targets(module)
    before = _originals(targets)
    with pytest.raises(RuntimeError):
        with TraceShim(Tracer(), targets):
            Widget().outer(2)
            raise RuntimeError("boom")
    assert all(now is then for now, then in zip(_originals(targets), before))


def _named(tracer, name):
    return [span for span in tracer.spans if span.name == name]


def test_shim_restores_earlier_targets_when_a_later_one_is_invalid():
    before = vars(Widget)["inner"]
    targets = [Target(Widget, "inner", "inner"), Target(Widget, "missing", "missing")]
    with pytest.raises(AttributeError):
        with TraceShim(Tracer(), targets):
            pass  # pragma: no cover - never entered
    assert vars(Widget)["inner"] is before


def test_class_and_static_methods_are_refused():
    class Methods:
        @classmethod
        def build(cls):
            return cls()

    with pytest.raises(TypeError):
        with TraceShim(Tracer(), [Target(Methods, "build", "build")]):
            pass  # pragma: no cover - never entered
    assert isinstance(vars(Methods)["build"], classmethod)


def test_inherited_attributes_are_refused():
    class Child(Widget):
        pass

    with pytest.raises(AttributeError):
        with TraceShim(Tracer(), [Target(Child, "inner", "inner")]):
            pass  # pragma: no cover - never entered


def test_spans_nest_and_self_time_excludes_children():
    module = _module()
    tracer = Tracer()
    with TraceShim(tracer, _targets(module)):
        assert Widget().outer(3) == 3
        assert Widget().twice(4) == 8
        assert list(Widget().items(2)) == [0, 1]
        assert module.helper(1) == 2
    names = [span.name for span in tracer.spans]
    assert names.count("inner") == 3
    assert names.count("outer") == 1
    # The call plus one span per next(), the last one seeing StopIteration.
    assert names.count("items") == 4
    outer = _named(tracer, "outer")[0]
    assert all(span.parent is outer for span in _named(tracer, "inner"))
    own = tracer.self_seconds()
    inner_total = sum(span.duration for span in _named(tracer, "inner"))
    assert own["outer"] == pytest.approx(outer.duration - inner_total)
    assert own["outer"] >= 0.0


def test_span_keys_come_from_the_call():
    tracer = Tracer()
    target = Target(Widget, "twice", "twice", key=lambda args, kwargs, result: result)
    with TraceShim(tracer, [target]):
        Widget().twice(21)
    assert _named(tracer, "twice")[0].key == 42


def test_shim_reports_its_wall_time():
    shim = TraceShim(Tracer(), [])
    with shim:
        pass
    assert shim.wall_seconds >= 0.0


def test_write_puts_every_span_in_one_file(tmp_path):
    tracer = Tracer()
    with TraceShim(tracer, [Target(Widget, "inner", "inner")]):
        Widget().outer(2)
    path = tmp_path / "spans.tsv.gz"
    tracer.write(path)
    with gzip.open(path, "rt") as written:
        lines = written.read().splitlines()
    assert lines[0].startswith("index\tname")
    assert len(lines) == 1 + len(tracer.spans)


def test_the_benchmark_layer_targets_are_restored():
    from perfbench import layers

    targets = layers.targets()
    before = _originals(targets)
    with TraceShim(Tracer(), targets):
        pass
    assert all(now is then for now, then in zip(_originals(targets), before))
