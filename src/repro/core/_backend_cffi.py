"""cffi kernel backend: the packed hot loops as ahead-of-time C.

Three functions mirror the numpy packed path exactly (bit for bit):

* ``repro_pack_digits`` -- the ``pack_digits`` contract of
  :mod:`repro.core.packed`: ``(B, C, H, W)`` digits straight to
  plane-major, channel-last ``uint64`` words with the pad frame holding
  the planes of the pad digit, plus an out-of-range flag.  One pass over
  the digits with unit-stride inner loops (gemm rows sweep a word's
  contiguous channels; feature maps build a block of pixels' words per
  channel word): no padded digit map, no ``(bits, ...)`` plane array
  and no transpose copy exist;
* ``repro_packed_gemm`` -- the *fused weighted* popcount-reduce GEMM
  ``out[i, j] = sum_{s,t} 2**(s+t) * popc(a[s*m+i] op b[t*n+j])``, i.e.
  the whole batched BMMA plus the shifted-add bit combination in one
  pass.  The numpy path materializes the ``(p, q, M, N)`` int64 plane
  intermediate (the dominant cost at bench shapes); fusing the shift
  weights into the accumulation skips it entirely, and the result is
  exact in int64 (no float-mantissa bound), feeding the same fold
  epilogue as the BLAS ``fold`` engine;
* ``repro_conv_gather`` -- per-window gather of channel-packed words
  from a padded feature map (``memcpy`` of ``kw * cwords`` word runs),
  replacing the im2col digit-matrix materialization.

The shared object is compiled once per C-source hash and cached under
``REPRO_CFFI_CACHE`` (default ``~/.cache/repro/cffi``), so only the
first process on a machine pays the ~seconds of gcc; everyone after
does a dlopen.  Processes that start cold together each compile in a
private directory and publish the object atomically, so none of them
can load a half-written file.  ``-march=native`` matters: without
``-mpopcnt`` gcc lowers ``__builtin_popcountll`` to a libgcc
bit-twiddling routine and the GEMM runs ~10x slower, so the build tries
native flags first and falls back to plain ``-O3`` on compilers that
reject them.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import tempfile
from pathlib import Path
from typing import Any, Callable

import numpy as np

__all__ = ["kernels", "cache_dir", "CFFI_SOURCE"]

CFFI_CDEF = """
int32_t repro_pack_digits(const int64_t *src, int64_t nb, int64_t nc,
                          int64_t h, int64_t w, int64_t bits, int64_t pad,
                          int64_t pad_digit, uint64_t *out);
void repro_packed_gemm(const uint64_t *a, const uint64_t *b,
                       int64_t p, int64_t m, int64_t q, int64_t n,
                       int64_t nwords, int32_t op_and, int64_t *out);
void repro_conv_gather(const uint64_t *src, int64_t images, int64_t h,
                       int64_t w, int64_t cwords, int64_t kh, int64_t kw,
                       int64_t stride, uint64_t *out);
"""

CFFI_SOURCE = r"""
#include <stdint.h>
#include <string.h>

/* pack_digits contract (repro.core.packed): src is (nb, nc, h, w)
   digits; out is (bits*nb, h+2*pad, w+2*pad, cw) words, cw =
   ceil(nc/64).  Plane s of image i is out image s*nb + i; channel c sits
   at bit c % 64 of word c / 64, filler bits zero (bitops.pack_bits
   layout along the channel axis); the pad frame holds the planes of
   pad_digit.  Returns nonzero when a digit lies outside [0, 2**bits):
   the cast to unsigned sends negatives past the top.  bits <= 16
   (types.MAX_BITS) bounds the accumulator block. */
#define PACK_PIXELS 64
int32_t repro_pack_digits(const int64_t *src, int64_t nb, int64_t nc,
                          int64_t h, int64_t w, int64_t bits, int64_t pad,
                          int64_t pad_digit, uint64_t *out) {
    const int64_t hp = h + 2 * pad, wp = w + 2 * pad;
    const int64_t cw = (nc + 63) / 64, hw = h * w;
    const int64_t plane = nb * hp * wp * cw;  /* words per plane */
    uint64_t bad = 0;
    for (int64_t s = 0; pad && s < bits; s++) {
        const int set = (int)((pad_digit >> s) & 1);
        for (int64_t i = 0; i < nb; i++) {
            uint64_t *img = out + (s * nb + i) * hp * wp * cw;
            for (int64_t y = 0; y < hp; y++) {
                const int frame_row = y < pad || y >= pad + h;
                for (int64_t x = 0; x < wp; x++) {
                    if (!frame_row && x >= pad && x < pad + w)
                        continue;
                    uint64_t *dst = img + (y * wp + x) * cw;
                    for (int64_t k = 0; k < cw; k++) {
                        int64_t n = nc - k * 64 < 64 ? nc - k * 64 : 64;
                        dst[k] = !set ? 0
                            : n == 64 ? ~(uint64_t)0
                            : (((uint64_t)1 << n) - 1);
                    }
                }
            }
        }
    }
    if (hw == 1) {
        /* gemm rows (and 1x1 maps): a word's channels are contiguous,
           so each plane's word is one unit-stride sweep */
        for (int64_t i = 0; i < nb; i++) {
            uint64_t *dst = out + ((i * hp + pad) * wp + pad) * cw;
            for (int64_t k = 0; k < cw; k++) {
                const uint64_t *ch = (const uint64_t *)src + i * nc + k * 64;
                int64_t n = nc - k * 64 < 64 ? nc - k * 64 : 64;
                for (int64_t s = 0; s < bits; s++) {
                    uint64_t acc = 0;
                    for (int64_t j = 0; j < n; j++) {
                        bad |= ch[j] >> bits;
                        acc |= ((ch[j] >> s) & 1) << j;
                    }
                    dst[s * plane + k] = acc;
                }
            }
        }
        return bad != 0;
    }
    /* feature maps: per channel word, PACK_PIXELS pixels at a time --
       each channel's pixels are contiguous, so the inner loops are
       unit-stride with uniform shifts and the block's words stay in a
       small accumulator until they are scattered to the output */
    uint64_t acc[16 * PACK_PIXELS];
    for (int64_t i = 0; i < nb; i++) {
        for (int64_t k = 0; k < cw; k++) {
            const uint64_t *ch = (const uint64_t *)src + (i * nc + k * 64) * hw;
            int64_t n = nc - k * 64 < 64 ? nc - k * 64 : 64;
            for (int64_t p0 = 0; p0 < hw; p0 += PACK_PIXELS) {
                int64_t pn = hw - p0 < PACK_PIXELS ? hw - p0 : PACK_PIXELS;
                memset(acc, 0, (size_t)(bits * pn) * sizeof(uint64_t));
                for (int64_t j = 0; j < n; j++) {
                    const uint64_t *row = ch + j * hw + p0;
                    for (int64_t p = 0; p < pn; p++)
                        bad |= row[p] >> bits;
                    for (int64_t s = 0; s < bits; s++) {
                        uint64_t *a = acc + s * pn;
                        for (int64_t p = 0; p < pn; p++)
                            a[p] |= ((row[p] >> s) & 1) << j;
                    }
                }
                for (int64_t p = 0; p < pn; p++) {
                    int64_t y = (p0 + p) / w, x = (p0 + p) % w;
                    uint64_t *dst = out
                        + ((i * hp + y + pad) * wp + x + pad) * cw + k;
                    for (int64_t s = 0; s < bits; s++)
                        dst[s * plane] = acc[s * pn + p];
                }
            }
        }
    }
    return bad != 0;
}

/* Fused weighted popcount-reduce GEMM over plane-major packed operands:
   a is (p*m, nwords) -- plane s of row i at a[s*m + i]; b is
   (q*n, nwords); out[i*n + j] = sum_{s,t} (1 << (s+t)) *
   popc(a_row op b_row).  j is blocked so the b rows of one block stay
   cache-resident across the i sweep. */
void repro_packed_gemm(const uint64_t *a, const uint64_t *b,
                       int64_t p, int64_t m, int64_t q, int64_t n,
                       int64_t nwords, int32_t op_and, int64_t *out) {
    const int64_t BJ = 48;
    memset(out, 0, (size_t)(m * n) * sizeof(int64_t));
    for (int64_t s = 0; s < p; s++) {
        for (int64_t t = 0; t < q; t++) {
            const int64_t shift = s + t;
            const uint64_t *ap = a + s * m * nwords;
            const uint64_t *bp = b + t * n * nwords;
            for (int64_t j0 = 0; j0 < n; j0 += BJ) {
                int64_t j1 = j0 + BJ < n ? j0 + BJ : n;
                for (int64_t i = 0; i < m; i++) {
                    const uint64_t *ar = ap + i * nwords;
                    int64_t *orow = out + i * n;
                    if (op_and) {
                        for (int64_t j = j0; j < j1; j++) {
                            const uint64_t *br = bp + j * nwords;
                            int64_t acc = 0;
                            for (int64_t w = 0; w < nwords; w++)
                                acc += __builtin_popcountll(ar[w] & br[w]);
                            orow[j] += acc << shift;
                        }
                    } else {
                        for (int64_t j = j0; j < j1; j++) {
                            const uint64_t *br = bp + j * nwords;
                            int64_t acc = 0;
                            for (int64_t w = 0; w < nwords; w++)
                                acc += __builtin_popcountll(ar[w] ^ br[w]);
                            orow[j] += acc << shift;
                        }
                    }
                }
            }
        }
    }
}

/* Window gather over a channel-packed padded feature map
   (images, h, w, cwords): each output row is one window's kh*kw runs of
   cwords words, kernel-row-major -- the K axis a conv GEMM reduces. */
void repro_conv_gather(const uint64_t *src, int64_t images, int64_t h,
                       int64_t w, int64_t cwords, int64_t kh, int64_t kw,
                       int64_t stride, uint64_t *out) {
    int64_t oh = (h - kh) / stride + 1;
    int64_t ow = (w - kw) / stride + 1;
    uint64_t *dst = out;
    for (int64_t img = 0; img < images; img++) {
        const uint64_t *base = src + img * h * w * cwords;
        for (int64_t oy = 0; oy < oh; oy++) {
            for (int64_t ox = 0; ox < ow; ox++) {
                const uint64_t *win = base
                    + (oy * stride) * w * cwords + (ox * stride) * cwords;
                for (int64_t i = 0; i < kh; i++) {
                    memcpy(dst, win + i * w * cwords,
                           (size_t)(kw * cwords) * sizeof(uint64_t));
                    dst += kw * cwords;
                }
            }
        }
    }
}
"""

#: Native flags first (gcc without -mpopcnt emits a libgcc popcount and
#: the GEMM loses ~10x); plain -O3 is the portable fallback.
_FLAG_SETS = (
    ["-O3", "-march=native", "-funroll-loops"],
    ["-O3", "-funroll-loops"],
)

_loaded: Any = None


def cache_dir() -> Path:
    """Where built shared objects live (override: ``REPRO_CFFI_CACHE``)."""
    env = os.environ.get("REPRO_CFFI_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "cffi"


def _module_name() -> str:
    digest = hashlib.sha256(
        (CFFI_CDEF + CFFI_SOURCE).encode("utf-8")
    ).hexdigest()[:16]
    return f"_repro_cffi_{digest}"


def _find_built(directory: Path, modname: str):
    for path in sorted(directory.glob(f"{modname}*.so")):
        return path
    return None


def _load_module(so_path: Path, modname: str):
    spec = importlib.util.spec_from_file_location(modname, so_path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load built backend from {so_path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _compile(directory: Path, modname: str) -> Path:
    """Build the shared object and publish it into ``directory``.

    gcc writes into a private temp directory and the finished ``.so`` is
    moved in with one atomic ``os.replace``, so a concurrent process
    never dlopens a half-written file; racing builders each publish a
    complete, identical object and the last rename wins.
    """
    from cffi import FFI

    directory.mkdir(parents=True, exist_ok=True)
    errors: list[str] = []
    with tempfile.TemporaryDirectory(prefix=".build-", dir=directory) as tmp:
        for flags in _FLAG_SETS:
            ffi = FFI()
            ffi.cdef(CFFI_CDEF)
            ffi.set_source(modname, CFFI_SOURCE, extra_compile_args=flags)
            try:
                ffi.compile(tmpdir=tmp, verbose=False)
            except Exception as exc:  # distutils raises several types
                errors.append(f"{flags}: {type(exc).__name__}: {exc}")
                continue
            built = _find_built(Path(tmp), modname)
            if built is not None:
                target = directory / built.name
                os.replace(built, target)
                return target
    raise RuntimeError("cffi backend build failed: " + "; ".join(errors))


def _build() -> Any:
    """Compile (or dlopen the cached) shared object; returns the module."""
    global _loaded
    if _loaded is not None:
        return _loaded
    modname = _module_name()
    directory = cache_dir()
    built = _find_built(directory, modname) or _compile(directory, modname)
    _loaded = _load_module(built, modname)
    return _loaded


def _pack_digits(
    digits: np.ndarray, bits: int, pad: int, pad_digit: int
) -> tuple[np.ndarray | None, bool]:
    """``(B, C, H, W)`` digits -> ``((bits * B, H + 2*pad, W + 2*pad,
    ceil(C / 64))`` uint64 words, out-of-range flag)``; non-integer
    digits are flagged without packing."""
    if digits.dtype.kind not in "iu":
        return None, True
    if not 1 <= bits <= 16 or pad < 0:
        raise ValueError(f"pack_digits: bits={bits}, pad={pad} out of range")
    module = _build()
    ffi, lib = module.ffi, module.lib
    # uint64 digits past 2**63 wrap negative here and are flagged
    digits = np.ascontiguousarray(digits, dtype=np.int64)
    nb, nc, h, w = digits.shape
    out = np.empty(
        (bits * nb, h + 2 * pad, w + 2 * pad, -(-nc // 64)), dtype=np.uint64
    )
    if not out.size:
        return out, False
    bad = lib.repro_pack_digits(
        ffi.from_buffer("int64_t *", digits),
        nb, nc, h, w, bits, pad, pad_digit,
        ffi.from_buffer("uint64_t *", out),
    )
    return out, bool(bad)


def _packed_gemm(
    a_words: np.ndarray,
    b_words: np.ndarray,
    p: int,
    m: int,
    q: int,
    n: int,
    op_and: bool,
) -> np.ndarray:
    """Fused weighted popcount GEMM; returns (m, n) int64 fold sums."""
    module = _build()
    ffi, lib = module.ffi, module.lib
    a_words = np.ascontiguousarray(a_words, dtype=np.uint64)
    b_words = np.ascontiguousarray(b_words, dtype=np.uint64)
    nwords = a_words.shape[1] if a_words.ndim == 2 else 0
    out = np.zeros((m, n), dtype=np.int64)
    if m and n and nwords and p and q:
        lib.repro_packed_gemm(
            ffi.from_buffer("uint64_t *", a_words),
            ffi.from_buffer("uint64_t *", b_words),
            p, m, q, n, nwords, 1 if op_and else 0,
            ffi.from_buffer("int64_t *", out),
        )
    return out


def _conv_gather(
    words: np.ndarray, kh: int, kw: int, stride: int
) -> np.ndarray:
    """(images, h, w, cwords) -> (images * oh * ow, kh * kw * cwords)."""
    module = _build()
    ffi, lib = module.ffi, module.lib
    words = np.ascontiguousarray(words, dtype=np.uint64)
    images, h, w, cwords = words.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    out = np.empty((images * oh * ow, kh * kw * cwords), dtype=np.uint64)
    if out.size:
        lib.repro_conv_gather(
            ffi.from_buffer("uint64_t *", words),
            images, h, w, cwords, kh, kw, stride,
            ffi.from_buffer("uint64_t *", out),
        )
    return out


def kernels() -> dict[str, Callable[..., Any]]:
    """Capability -> kernel table (builds/loads the shared object)."""
    _build()
    return {
        "pack_digits": _pack_digits,
        "packed_gemm": _packed_gemm,
        "conv_gather": _conv_gather,
    }
