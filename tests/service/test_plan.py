"""Served runs execute the program's kept dispatch plan.

``/compile`` builds the plan on the server's own store and pre-warms its
kernels; every ``/run`` then executes it.  A warm run does no static work
(no verification, no chunk codegen, no store lookup) over any transport,
and a run right after ``/compile`` builds no kernel — not even when the
process-default store is empty.
"""

import numpy as np
import pytest

from repro.cache import ArtifactCache, configure
from repro.codegen.cload import have_compiler
from repro.codegen.pygen import compile_procedure
from repro.ir.printer import to_source
from repro.service import ServiceClient, serve_background
from repro.workloads import get_workload, make_env

TRANSPORTS = ("json", "wire", "shm")
needs_gcc = pytest.mark.skipif(not have_compiler(), reason="no gcc on PATH")

SAXPY = """
procedure saxpy(X[1], Y[1]; n)
  doall i = 1, n
    Y(i) := Y(i) + 2.0 * X(i)
  end
end
"""


@pytest.fixture()
def service(tmp_path):
    store = ArtifactCache(tmp_path / "server-store")
    server, thread = serve_background(cache=store)
    client = ServiceClient(port=server.port)
    try:
        yield client, store
    finally:
        client.close()
        server.shutdown()
        server.close()
        thread.join(timeout=10)


def _saxpy_env(n=256, seed=0):
    rng = np.random.default_rng(seed)
    return {"X": rng.random(n + 1), "Y": rng.random(n + 1)}, {"n": n}


def _static(client) -> dict:
    doc = client.metrics()
    d = doc["dispatch"]
    return {
        "verifications": d["safety"]["checked"],
        "chunk_emits": d["plan"]["chunk_emits"],
        "plan_builds": d["plan"]["builds"],
        "store_lookups": doc["cache"]["hits"] + doc["cache"]["misses"],
    }


@needs_gcc
def test_run_after_compile_builds_no_kernel(service, tmp_path):
    client, store = service
    default = configure(dir=tmp_path / "empty-default")
    try:
        key = client.compile(SAXPY, backend="mp")["key"]
        stores = store.stats.stores
        arrays, sc = _saxpy_env()
        out = client.run(key, arrays, sc, workers=2)
        assert out["engine"] == "mp-pool" and out["chunk_lang"] == "c"
        assert store.stats.stores == stores  # nothing compiled or pinned
        assert default.entry_count() == 0  # nor in the default store
    finally:
        configure()


def test_warm_runs_do_no_static_work(service):
    client, _ = service
    key = client.compile(SAXPY, backend="mp")["key"]
    arrays, sc = _saxpy_env(seed=3)
    expected = dict(arrays)
    expected["Y"] = arrays["Y"] + 2.0 * arrays["X"]
    expected["Y"][0] = arrays["Y"][0]
    cold = {t: client.run(key, arrays, sc, workers=2, transport=t)
            for t in TRANSPORTS}
    hits = client.metrics()["dispatch"]["plan"]["hits"]
    before = _static(client)
    for t in TRANSPORTS:
        warm = client.run(key, arrays, sc, workers=2, transport=t)
        assert warm["engine"] == "mp-pool"
        for name in arrays:
            np.testing.assert_array_equal(warm["arrays"][name],
                                          cold[t]["arrays"][name])
            np.testing.assert_array_equal(warm["arrays"][name],
                                          cold["json"]["arrays"][name])
        np.testing.assert_array_equal(warm["arrays"]["Y"], expected["Y"])
    assert _static(client) == before
    assert client.metrics()["dispatch"]["plan"]["hits"] == hits + 3


def test_speculate_certificates_stay_per_run(service):
    from repro.workloads import IRREGULAR_WORKLOADS

    client, _ = service
    w = IRREGULAR_WORKLOADS["scatter_perm"]()
    key = client.compile(
        to_source(w.proc), backend="mp", analyze=False
    )["key"]
    for seed in (0, 1):
        arrays, sc = make_env(w, seed=seed)
        out = client.run(key, arrays, sc, workers=2, safety="speculate",
                         transport="wire")
        assert out["speculate"]["inspected"] == 1
        assert len(out["speculate"]["certificates"]) == 1


@needs_gcc
def test_compile_backend_c_gauss_jordan(service):
    client, _ = service
    w = get_workload("gauss_jordan")
    comp = client.compile(to_source(w.proc), backend="c")
    arrays, sc = make_env(w, seed=4)
    expected = {k: v.copy() for k, v in arrays.items()}
    compile_procedure(w.proc).run(expected, sc)
    out = client.run(comp["key"], arrays, sc)
    assert out["engine"] == "c"
    for name in expected:
        np.testing.assert_allclose(out["arrays"][name], expected[name],
                                   rtol=1e-12, atol=1e-12)
