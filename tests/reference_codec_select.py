"""The trial-encode codec picker: executable spec for ``codecs._auto_pick``.

``"auto"`` selection used to encode each column's sample with every
candidate — ``delta`` for real, ``zlib`` at level 1 as a ratio probe — and
keep the smallest. The picker in ``repro.bat.codecs`` now runs no encoder
(exact ``delta`` size from the bit width, ``zlib`` from a byte-entropy
estimate); this is the probe-based picker kept as the reference it is
compared against, the role ``reference_treelet`` plays for the forest
build. Same sample, same ``RAW_MARGIN`` rule, same candidate order; the
throughput floor it also applied never excluded either candidate and is
gone with ``Codec.throughput_mbs``.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.bat.codecs import (
    CODEC_DELTA,
    CODEC_RAW,
    CODEC_ZLIB,
    RAW_MARGIN,
    _sample,
    get_codec,
)


def probe_nbytes(name: str, sample: np.ndarray) -> int:
    """What the old picker measured: a real ``delta`` encode, a level-1 zlib probe."""
    if name == CODEC_ZLIB:
        return len(zlib.compress(np.ascontiguousarray(sample).tobytes(), 1))
    return len(get_codec(name).encode(sample)[0])


def auto_pick_probe(arr: np.ndarray) -> str:
    """The best *lossless* codec for one column, by trial-encoded sample size."""
    sample = _sample(arr)
    raw_nbytes = sample.nbytes
    if raw_nbytes == 0:
        return CODEC_RAW
    best_name, best_nbytes = CODEC_RAW, raw_nbytes
    for name in (CODEC_DELTA, CODEC_ZLIB):
        if not get_codec(name).can_encode(sample.dtype):
            continue
        nbytes = probe_nbytes(name, sample)
        if nbytes < best_nbytes:
            best_name, best_nbytes = name, nbytes
    if best_name != CODEC_RAW and best_nbytes > RAW_MARGIN * raw_nbytes:
        return CODEC_RAW
    return best_name
