"""Kernel-backend registry: who executes the packed hot loops.

The packed strategy has three hot loops -- the digit pack (range check,
pad frame, bit split and channel pack in one contract), the
popcount-reduce GEMM, and the packed conv window gather.
A :class:`Backend` descriptor names one implementation tier and
advertises which loops it accelerates via capability flags.  Two tiers
ship: ``cffi`` (ahead-of-time C, used whenever its kernels load) and
``numpy`` (the vectorized reference, always available and always
correct).  Selection has one seam: the per-call ``backend=`` kwarg of
``apmm``/``apconv``/``packed_matmul``/``pack_operand``; ``None`` means
:func:`get_backend`, the highest-priority usable backend.

Compiled backends are *optional acceleration*, never a semantic change:
each compiled kernel is byte-identical to the numpy path (enforced by
the hypothesis suite and the ``repro.bench`` byte-identity oracle), and
a load/build failure degrades auto-detection to numpy with a single
warning instead of an error.  Only an *explicit* ``backend=`` request
for an unusable backend raises.

The registry is also the single source of truth for kernel *strategy*
validation: :func:`resolve_dispatch` is the one check ``apmm`` and
``apconv`` share, and its errors enumerate the valid
``(strategy, backend)`` combinations.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

__all__ = [
    "CAPABILITIES",
    "STRATEGIES",
    "Backend",
    "available_backends",
    "backend_names",
    "get_backend",
    "resolve_backend",
    "kernel",
    "resolve_dispatch",
    "valid_combinations",
]

#: The packed hot loops a compiled backend may accelerate.
#:
#: * ``pack_digits`` -- ``(B, C, H, W)`` digits to plane-major,
#:   channel-last ``uint64`` words with an input-aware pad frame, plus an
#:   out-of-range flag (the contract of :mod:`repro.core.packed`);
#: * ``packed_gemm`` -- the fused weighted popcount-reduce GEMM
#:   (``sum_{s,t} 2**(s+t) * popc(A_s op B_t)`` in one pass, no
#:   ``(p, q, M, N)`` intermediate);
#: * ``conv_gather`` -- packed conv window gather over a word-packed
#:   feature map (kills the im2col digit-matrix materialization).
CAPABILITIES = ("pack_digits", "packed_gemm", "conv_gather")

#: Kernel execution strategies (the axis `apmm`/`apconv` always had).
#: ``"packed"`` is the only backend-sensitive one; ``"integer"`` and
#: ``"bitserial"`` are numpy reference paths by definition.
STRATEGIES = ("packed", "integer", "bitserial")


@dataclass(frozen=True)
class Backend:
    """One implementation tier of the packed hot loops.

    Attributes
    ----------
    name:
        Registry key (``"numpy"``, ``"cffi"``).
    compiled:
        Whether kernels run outside the numpy interpreter loop.
    priority:
        Auto-detection rank (highest usable backend wins).
    capabilities:
        Subset of :data:`CAPABILITIES` this backend accelerates; the
        numpy backend advertises none (call sites keep their existing
        vectorized code when :func:`kernel` returns ``None``).
    loader:
        Zero-arg callable returning the capability -> kernel mapping;
        ``None`` for the numpy reference tier.  Loading is lazy (the cffi
        backend compiles its shared object on first use, disk-cached)
        and failure marks the backend unusable rather than raising.
    """

    name: str
    compiled: bool
    priority: int
    capabilities: frozenset[str]
    loader: Callable[[], Mapping[str, Callable[..., Any]]] | None = field(
        default=None, compare=False, repr=False
    )


_REGISTRY: dict[str, Backend] = {}
#: Lazily loaded kernel tables; a ``None`` value marks a backend whose
#: loader raised (unusable until the process restarts).
_KERNELS: dict[str, Mapping[str, Callable[..., Any]] | None] = {}
#: Warn-once bookkeeping (degradations should not spam per kernel call).
_WARNED: set[str] = set()


def _warn_once(key: str, message: str) -> None:
    if key in _WARNED:
        return
    _WARNED.add(key)
    warnings.warn(message, RuntimeWarning, stacklevel=3)


def register_backend(backend: Backend) -> None:
    """Add a backend to the registry (name collisions are a bug)."""
    if backend.name in _REGISTRY:
        raise ValueError(f"backend {backend.name!r} is already registered")
    unknown = set(backend.capabilities) - set(CAPABILITIES)
    if unknown:
        raise ValueError(
            f"backend {backend.name!r} declares unknown capabilities "
            f"{sorted(unknown)}; valid: {CAPABILITIES}"
        )
    _REGISTRY[backend.name] = backend


def available_backends() -> tuple[Backend, ...]:
    """Registered backends, highest detection priority first.

    Registration means the import probe succeeded; a backend can still
    turn out unusable when its kernels first load (e.g. no C compiler
    for a cold cffi cache), at which point selection degrades to numpy.
    """
    return tuple(
        sorted(_REGISTRY.values(), key=lambda b: -b.priority)
    )


def backend_names() -> tuple[str, ...]:
    """Registered backend names, highest detection priority first."""
    return tuple(b.name for b in available_backends())


def _kernels_for(backend: Backend) -> Mapping[str, Callable[..., Any]] | None:
    """The backend's kernel table, loading (and caching) it on first use.

    Returns ``None`` for the numpy tier and for compiled backends whose
    loader failed -- callers treat both as "use the numpy code path".
    """
    if backend.loader is None:
        return None
    if backend.name in _KERNELS:
        return _KERNELS[backend.name]
    try:
        table = backend.loader()
    except Exception as exc:
        # Degradation is this module's contract: a broken toolchain must
        # cost one warning, not take down import or the hot path.
        _KERNELS[backend.name] = None
        _warn_once(
            f"load-failed:{backend.name}",
            f"kernel backend {backend.name!r} failed to load "
            f"({type(exc).__name__}: {exc}); falling back to numpy",
        )
        return None
    missing = set(backend.capabilities) - set(table)
    if missing:
        _KERNELS[backend.name] = None
        _warn_once(
            f"load-failed:{backend.name}",
            f"kernel backend {backend.name!r} loaded without advertised "
            f"kernels {sorted(missing)}; falling back to numpy",
        )
        return None
    _KERNELS[backend.name] = table
    return table


def _usable(backend: Backend) -> bool:
    """Whether this backend can actually execute its advertised kernels."""
    if backend.loader is None:
        return True
    return _kernels_for(backend) is not None


def get_backend() -> Backend:
    """The auto-detected backend: the highest-priority usable one.

    A compiled backend whose loader fails warns once and is skipped, so
    a broken toolchain degrades to numpy instead of crashing.
    """
    for backend in available_backends():
        if _usable(backend):
            return backend
    raise RuntimeError("no usable kernel backend registered")  # unreachable


def resolve_backend(choice: "str | Backend | None" = None) -> Backend:
    """Resolve a per-call backend choice to a usable :class:`Backend`.

    ``None`` means auto-detection (:func:`get_backend`).  An explicit
    name must name a registered, usable backend; unknown names raise
    with the full registry enumerated, and a registered but unusable
    backend raises rather than silently degrading (the caller asked for
    it by name).
    """
    if choice is None:
        return get_backend()
    if isinstance(choice, Backend):
        backend = choice
    else:
        backend = _REGISTRY.get(choice)
        if backend is None:
            raise ValueError(
                f"unknown backend {choice!r}; registered backends: "
                f"{'/'.join(backend_names())}"
            )
    if not _usable(backend):
        raise RuntimeError(
            f"backend {backend.name!r} is registered but failed to load "
            "its kernels (see the earlier warning); use backend='numpy' "
            "or fix the toolchain"
        )
    return backend


def kernel(
    capability: str, backend: "Backend | str | None" = None
) -> Callable[..., Any] | None:
    """The backend's compiled kernel for one capability, or ``None``.

    ``None`` means "run the numpy code path": the backend is the numpy
    tier, lacks the capability, or failed to load.  Call sites branch on
    this exactly once per kernel invocation.
    """
    if capability not in CAPABILITIES:
        raise ValueError(
            f"unknown capability {capability!r}; valid: {CAPABILITIES}"
        )
    resolved = resolve_backend(backend)
    if capability not in resolved.capabilities:
        return None
    table = _kernels_for(resolved)
    if table is None:
        return None
    return table[capability]


# ----------------------------------------------------------------------
# strategy dispatch (the registry-driven check apmm/apconv share)
# ----------------------------------------------------------------------
def valid_combinations() -> str:
    """Human-readable enumeration of valid ``(strategy, backend)`` pairs."""
    names = "/".join(backend_names())
    return (
        f"packed x ({names}), integer x (numpy), bitserial x (numpy)"
    )


def resolve_dispatch(
    strategy: str,
    backend: "str | Backend | None" = None,
    *,
    kernel_name: str = "kernel",
) -> tuple[str, Backend]:
    """Validate one ``(strategy, backend)`` request; the single check
    both ``apmm`` and ``apconv`` route through.

    * ``strategy`` must be one of :data:`STRATEGIES`;
    * the reference strategies (``integer``/``bitserial``) only combine
      with the numpy backend -- they exist to be the backend-free oracle;
    * errors enumerate the valid combinations uniformly.
    """
    if strategy not in STRATEGIES:
        raise ValueError(
            f"{kernel_name}: unknown strategy {strategy!r}; valid "
            f"(strategy, backend) combinations: {valid_combinations()}"
        )
    if strategy in ("integer", "bitserial"):
        if backend is not None:
            resolved = resolve_backend(backend)
            if resolved.name != "numpy":
                raise ValueError(
                    f"{kernel_name}: strategy {strategy!r} is a numpy "
                    f"reference path and cannot run on backend "
                    f"{resolved.name!r}; valid combinations: "
                    f"{valid_combinations()}"
                )
        return strategy, _REGISTRY["numpy"]
    return "packed", resolve_backend(backend)


# ----------------------------------------------------------------------
# registration / auto-detection (import time: cheap probes only)
# ----------------------------------------------------------------------
def _load_cffi():
    from . import _backend_cffi

    return _backend_cffi.kernels()


def _probe(module: str) -> bool:
    """Cheap import-time availability probe (no compilation)."""
    import importlib.util

    try:
        return importlib.util.find_spec(module) is not None
    except (ImportError, ValueError):
        return False


register_backend(
    Backend(
        name="numpy",
        compiled=False,
        priority=10,
        capabilities=frozenset(),
    )
)

if _probe("cffi"):
    register_backend(
        Backend(
            name="cffi",
            compiled=True,
            priority=20,
            capabilities=frozenset(CAPABILITIES),
            loader=_load_cffi,
        )
    )
