"""Physical-array selection: observed from the interpreter, reported back out.

An :class:`Embedding` given no ``physical_factory`` builds the numpy
``vector`` array when :mod:`repro.core.physical_vector` imports and the slab
array otherwise (:func:`repro.core.embedding.default_physical_factory`).
These tests pin that rule, the numpy-free classical store, the explicit
``physical_factory`` seam on ``Embedding`` / ``LayeredLabeler`` /
``make_corollary11_labeler``, and the backend name each layer reports
(``Embedding.physical_backend``, ``shard_statistics()``,
``RunResult.summary()``).
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.algorithms import AdaptivePMA, ClassicalPMA, make_sharded_labeler
from repro.analysis.runner import run_workload
from repro.core.embedding import Embedding, default_physical_factory
from repro.core.layered import make_corollary11_labeler
from repro.core.physical import PhysicalArray
from repro.core.physical_reference import ReferencePhysicalArray
from repro.store.store import DurableStore
from repro.workloads.random_uniform import RandomWorkload

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

#: Every backend class this interpreter can build, by reported name.
FACTORIES = {
    cls.name: cls
    for cls in (ReferencePhysicalArray, PhysicalArray, default_physical_factory())
}
AVAILABLE = tuple(FACTORIES)

needs_vector = pytest.mark.skipif(
    "vector" not in FACTORIES, reason="numpy unavailable"
)


@pytest.fixture
def no_numpy(monkeypatch):
    """Make the vector module unimportable, as on a numpy-less interpreter."""
    monkeypatch.setitem(sys.modules, "repro.core.physical_vector", None)


def run_fresh(script: str) -> None:
    """Run ``script`` in a fresh interpreter with only ``src`` on the path."""
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC_DIR), "PATH": "/usr/bin:/bin"},
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr


def build_embedding(capacity=8, **kwargs):
    return Embedding(
        capacity,
        fast_factory=lambda cap, slots: AdaptivePMA(cap, slots),
        reliable_factory=lambda cap, slots: ClassicalPMA(cap, slots),
        **kwargs,
    )


def corollary11_store(path, **kwargs):
    return DurableStore(
        path,
        algorithm="corollary11",
        shard_capacity=32,
        sync_policy="never",
        **kwargs,
    )


class TestResolve:
    @needs_vector
    def test_vector_resolves_when_numpy_present(self):
        labeler = make_corollary11_labeler(64)
        assert labeler.physical_backend == "vector"
        assert labeler.inner_embedding.physical_backend == "vector"

    def test_default_is_slab(self, no_numpy):
        """Without numpy the default structure builds, runs and reports slab."""
        labeler = make_corollary11_labeler(64)
        assert labeler.physical_backend == "slab"
        assert labeler.inner_embedding.physical_backend == "slab"
        for rank in range(1, 17):
            labeler.insert(rank, rank)
        assert labeler.elements() == list(range(1, 17))

    @needs_vector
    def test_old_numpy_falls_back_to_slab(self):
        """numpy < 2.0 lacks ``np.bitwise_count``: the vector module refuses
        to import, so the default is slab rather than a crash mid-insert."""
        script = textwrap.dedent(
            """
            import numpy
            del numpy.bitwise_count
            from repro.core.layered import make_corollary11_labeler

            labeler = make_corollary11_labeler(64)
            labeler.insert(1, "one")
            assert labeler.physical_backend == "slab", labeler.physical_backend
            """
        )
        run_fresh(script)

    def test_explicit_names(self):
        """An explicit ``physical_factory`` beats the observed default and
        reaches the inner embedding too."""
        for name, factory in FACTORIES.items():
            labeler = make_corollary11_labeler(64, physical_factory=factory)
            assert labeler.physical_backend == name
            assert labeler.inner_embedding.physical_backend == name

    def test_classical_store_never_imports_numpy(self, tmp_path):
        """The default store has no embedding, so numpy stays unloaded —
        importing it would grow a small serving process by about half."""
        script = textwrap.dedent(
            f"""
            import sys
            from repro.store import DurableStore, ServerThread, StoreService

            store = DurableStore(
                {str(tmp_path / "store")!r}, algorithm="classical", sync_policy="never"
            )
            store.put(1, "one")
            assert store.get(1) == "one"
            store.close()
            assert "numpy" not in sys.modules, "classical store loaded numpy"
            """
        )
        run_fresh(script)


class TestBackendNameOf:
    @pytest.mark.parametrize("name", AVAILABLE)
    def test_round_trip(self, name):
        factory = FACTORIES[name]
        assert factory(8).name == name
        assert build_embedding(physical_factory=factory).physical_backend == name

    def test_subclass_maps_to_base_backend(self):
        from repro.perf.trace import TracingPhysicalArray

        embedding = build_embedding(physical_factory=TracingPhysicalArray)
        assert embedding.physical_backend == "slab"


class TestThreading:
    """The seam reaches every layer and the backend is reported back out."""

    @pytest.mark.parametrize("name", AVAILABLE)
    def test_embedding(self, name):
        embedding = build_embedding(physical_factory=FACTORIES[name])
        assert embedding.physical_backend == name
        for rank in range(1, 9):
            embedding.insert(rank, rank)
        assert embedding.elements() == list(range(1, 9))

    @pytest.mark.parametrize("name", AVAILABLE)
    def test_layered_and_sharded_report_backend(self, name):
        factory = FACTORIES[name]
        labeler = make_sharded_labeler(
            lambda capacity: make_corollary11_labeler(
                capacity, physical_factory=factory
            ),
            shard_capacity=32,
        )
        for rank in range(1, 25):
            labeler.insert(rank, rank)
        assert labeler.physical_backend == name
        assert labeler.shard_statistics()["physical_backend"] == name
        assert labeler.elements() == list(range(1, 25))

    @pytest.mark.parametrize("name", AVAILABLE)
    def test_run_workload_summary(self, name):
        workload = RandomWorkload(64, 128, seed=5)
        labeler = make_corollary11_labeler(
            128, physical_factory=FACTORIES[name]
        )
        result = run_workload(labeler, workload, validate_every=32)
        assert result.summary()["physical_backend"] == name

    @pytest.mark.parametrize("name", AVAILABLE)
    def test_durable_store(self, name, tmp_path):
        factory = FACTORIES[name]
        store = corollary11_store(
            tmp_path / "store",
            shard_factory=lambda capacity: make_corollary11_labeler(
                capacity, seed=7, physical_factory=factory
            ),
        )
        try:
            store.put_many([(1, 10), (2, 20)])
            stats = store.labeler.shard_statistics()
            assert stats["physical_backend"] == name
        finally:
            store.close()

    def test_recovery_across_backends(self, tmp_path, monkeypatch):
        """A store written without numpy (slab) recovers under the default
        backend with identical keys and labels: the backend is never
        recorded on disk."""
        path = tmp_path / "store"
        items = [(key, key * 11) for key in range(1, 41)]
        with monkeypatch.context() as patch:
            patch.setitem(sys.modules, "repro.core.physical_vector", None)
            store = corollary11_store(path)
            store.put_many(items)
            store.close()
            reopened = corollary11_store(path)
            try:
                assert reopened.labeler.physical_backend == "slab"
                expected_keys = reopened.keys()
                expected_labels = reopened.labeler.labels()
            finally:
                reopened.close()
        reopened = corollary11_store(path)
        try:
            assert (
                reopened.labeler.shard_statistics()["physical_backend"]
                == default_physical_factory().name
            )
            assert reopened.keys() == expected_keys
            assert reopened.labeler.labels() == expected_labels
        finally:
            reopened.close()
