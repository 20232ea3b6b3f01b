"""Stress test of the tracer on a stand-in package, run with

    python3 -m pytest perfbench/test_tracer.py

Threads outnumber cores and switch every microsecond, so a lost counter
update or a span recorded under the wrong parent would show.
"""

import sys
import textwrap
import threading

import pytest

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from tracer import Tracer  # noqa: E402

THREADS = 8
CALLS = 500

MODULES = {
    "__init__": "",
    "encoder": """
        def encode_batch(enc, images):
            return [x * 2 for x in images]
    """,
    "cli": """
        import threading
        from .encoder import encode_batch

        def main(threads, calls):
            def work():
                for _ in range(calls):
                    encode_batch(None, [1.0, 2.0, 3.0])
            pool = [threading.Thread(target=work) for _ in range(threads)]
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=60)
            return sum(t.is_alive() for t in pool)
    """,
}


@pytest.fixture
def fake_package(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    for name, body in MODULES.items():
        (pkg / f"{name}.py").write_text(textwrap.dedent(body))
    monkeypatch.syspath_prepend(str(tmp_path))
    yield "fakepkg"
    for name in [m for m in sys.modules if m.split(".")[0] == "fakepkg"]:
        del sys.modules[name]


def test_counts_exact_under_threads(fake_package):
    import fakepkg.cli
    import fakepkg.encoder
    original = fakepkg.encoder.encode_batch
    tracer = Tracer(fake_package)
    tracer.install()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        alive = fakepkg.cli.main(THREADS, CALLS)
    finally:
        sys.setswitchinterval(interval)
        tracer.uninstall()
    assert alive == 0

    summary = tracer.summary()
    assert summary["calls"]["encoder.encode_batch"] == THREADS * CALLS
    assert summary["counts"]["encoder.encode_batch.rows"] == 3 * THREADS * CALLS
    assert summary["calls"]["cli.main"] == 1
    # every worker span hangs under the main span, so self times add up
    assert abs(sum(summary["layer_self_s"].values()) - summary["root_s"]) < 1e-6
    spans = tracer.spans()
    assert len({s[0] for s in spans}) == len(spans)
    root = [s for s in spans if s[1] == -1]
    assert len(root) == 1 and tracer.name_of(root[0][2]) == "cli.main"
    assert len({s[6] for s in spans}) == THREADS + 1

    # the name cli looks up was wrapped, and uninstall puts the original back
    assert fakepkg.cli.encode_batch is original
    assert fakepkg.encoder.encode_batch is original
    assert tracer.found["retrieval"]["present"] is False
    assert tracer.found["encoder"]["absent"] == ["forward_with_cache",
                                                 "backward_from_cache"]
    assert threading.active_count() == 1
