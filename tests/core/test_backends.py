"""The kernel-backend registry: selection, degradation, dispatch.

These tests exercise :mod:`repro.core.backends` semantics with throwaway
fake backends so they pass identically whether or not cffi is importable
in this interpreter: the per-call ``backend=`` kwarg over auto-detection,
warn-once degradation for broken loaders, hard errors for *explicit*
requests of broken backends, and the registry-driven ``(strategy,
backend)`` validation that ``apmm``/``apconv`` share.  The last class
builds the real cffi module from several cold processes at once.
"""

import os
import shutil
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.core import backends
from repro.core.backends import (
    CAPABILITIES,
    STRATEGIES,
    Backend,
    available_backends,
    backend_names,
    get_backend,
    register_backend,
    resolve_backend,
    resolve_dispatch,
    valid_combinations,
)


def _dummy_table():
    return {cap: (lambda *a, **k: None) for cap in CAPABILITIES}


@contextmanager
def temp_backend(name, *, priority=99, loader=_dummy_table,
                 capabilities=CAPABILITIES, compiled=True):
    """Register a throwaway backend; always deregistered on exit."""
    register_backend(Backend(
        name=name, compiled=compiled, priority=priority,
        capabilities=frozenset(capabilities), loader=loader,
    ))
    try:
        yield backends._REGISTRY[name]
    finally:
        backends._REGISTRY.pop(name, None)
        backends._KERNELS.pop(name, None)


@pytest.fixture(autouse=True)
def _restore_warned_state():
    """Isolate the warn-once bookkeeping per test."""
    saved_warned = set(backends._WARNED)
    yield
    backends._WARNED.clear()
    backends._WARNED.update(saved_warned)


class TestRegistry:
    def test_numpy_is_always_registered_and_usable(self):
        assert "numpy" in backend_names()
        numpy = resolve_backend("numpy")
        assert not numpy.compiled
        assert numpy.capabilities == frozenset()

    def test_names_sorted_by_detection_priority(self):
        with temp_backend("zz-high", priority=99):
            assert backend_names()[0] == "zz-high"
            prios = [b.priority for b in available_backends()]
            assert prios == sorted(prios, reverse=True)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend(Backend(
                name="numpy", compiled=False, priority=1,
                capabilities=frozenset(),
            ))

    def test_unknown_capability_rejected(self):
        with pytest.raises(ValueError, match="unknown capabilities"):
            register_backend(Backend(
                name="zz-bogus-caps", compiled=True,
                priority=1, capabilities=frozenset({"warp_shuffle"}),
            ))
        assert "zz-bogus-caps" not in backend_names()


class TestPrecedence:
    def test_auto_detection_picks_highest_priority_usable(self):
        with temp_backend("zz-high", priority=99):
            assert get_backend().name == "zz-high"

    def test_call_kwarg_beats_everything(self):
        with temp_backend("zz-high", priority=99):
            assert resolve_backend(None).name == "zz-high"
            assert resolve_backend("numpy").name == "numpy"


class TestDegradation:
    """Auto-detection degrades; explicit requests raise."""

    def _broken_loader(self):
        raise OSError("no C compiler")

    def test_auto_detection_skips_backend_whose_loader_raises(self):
        with temp_backend("zz-broken", priority=99,
                          loader=self._broken_loader):
            with pytest.warns(RuntimeWarning, match="failed to load"):
                first = get_backend()
            assert first.name != "zz-broken"
            # warn-once: the second resolution is silent
            import warnings as _w
            with _w.catch_warnings():
                _w.simplefilter("error")
                assert get_backend().name == first.name

    def test_explicit_request_of_broken_backend_raises(self):
        with temp_backend("zz-broken", loader=self._broken_loader):
            with pytest.warns(RuntimeWarning):
                backends._kernels_for(backends._REGISTRY["zz-broken"])
            with pytest.raises(RuntimeError, match="failed to load"):
                resolve_backend("zz-broken")

    def test_unknown_backend_name_enumerates_registry(self):
        with pytest.raises(ValueError, match="registered backends"):
            resolve_backend("zz-nonexistent")

    def test_loader_missing_advertised_kernel_degrades(self):
        with temp_backend("zz-partial", priority=99,
                          loader=lambda: {"pack_digits": lambda *a: None}):
            with pytest.warns(RuntimeWarning, match="without advertised"):
                assert get_backend().name != "zz-partial"


class TestKernelLookup:
    def test_numpy_backend_has_no_compiled_kernels(self):
        for cap in CAPABILITIES:
            assert backends.kernel(cap, "numpy") is None

    def test_unknown_capability_raises(self):
        with pytest.raises(ValueError, match="unknown capability"):
            backends.kernel("warp_shuffle")

    def test_usable_fake_backend_serves_its_table(self):
        table = _dummy_table()
        with temp_backend("zz-high", priority=99, loader=lambda: table):
            for cap in CAPABILITIES:
                assert backends.kernel(cap, "zz-high") is table[cap]

    def test_capability_not_advertised_returns_none(self):
        with temp_backend("zz-packonly", capabilities=("pack_digits",),
                          loader=lambda: {"pack_digits": lambda *a: None}):
            assert backends.kernel("conv_gather", "zz-packonly") is None


class TestResolveDispatch:
    def test_reference_strategies_pin_numpy(self):
        for strategy in ("integer", "bitserial"):
            resolved_strategy, b = resolve_dispatch(strategy)
            assert resolved_strategy == strategy
            assert b.name == "numpy"

    def test_reference_strategy_rejects_compiled_backend(self):
        with temp_backend("zz-high", priority=99):
            with pytest.raises(ValueError, match="valid combinations"):
                resolve_dispatch("bitserial", "zz-high", kernel_name="apmm")

    def test_unknown_strategy_enumerates_combinations(self):
        with pytest.raises(ValueError) as exc:
            resolve_dispatch("bogus", kernel_name="apconv")
        msg = str(exc.value)
        assert msg.startswith("apconv: unknown strategy")
        assert valid_combinations() in msg

    def test_backend_name_as_strategy_is_rejected(self):
        with temp_backend("zz-high", priority=99):
            for name in backend_names():
                with pytest.raises(ValueError) as exc:
                    resolve_dispatch(name, kernel_name="apmm")
                assert valid_combinations() in str(exc.value)

    def test_packed_resolves_through_backend_precedence(self):
        with temp_backend("zz-high", priority=99):
            strategy, b = resolve_dispatch("packed")
            assert (strategy, b.name) == ("packed", "zz-high")
            assert resolve_dispatch("packed", "numpy")[1].name == "numpy"

    def test_strategies_tuple_is_the_public_contract(self):
        assert STRATEGIES == ("packed", "integer", "bitserial")


def _c_compiler() -> bool:
    return any(shutil.which(cc) for cc in ("cc", "gcc", "clang"))


@pytest.mark.slow
@pytest.mark.skipif(
    "cffi" not in backend_names() or not _c_compiler(),
    reason="needs cffi and a C compiler",
)
class TestCffiColdBuild:
    """Processes that find the cffi cache empty at the same moment must
    all end up on cffi: none may dlopen a peer's half-written object."""

    PROCS = 4
    PROBE = (
        "from repro.core import backends; "
        "backends.kernel('packed_gemm'); "
        "print(backends.get_backend().name)"
    )

    def test_concurrent_cold_builds_all_load_cffi(self, tmp_path):
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p
        )
        env["REPRO_CFFI_CACHE"] = str(tmp_path / "cffi")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", self.PROBE], env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for _ in range(self.PROCS)
        ]
        results = [p.communicate(timeout=300) for p in procs]
        for proc, (out, err) in zip(procs, results):
            assert proc.returncode == 0, err
            assert out.strip() == "cffi", err
            assert "failed to load" not in err
        # only finished objects were published; no build scratch remains
        leftovers = sorted(p.name for p in (tmp_path / "cffi").iterdir())
        assert leftovers and all(n.endswith(".so") for n in leftovers)
