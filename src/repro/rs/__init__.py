"""Reed-Solomon ChipKill baseline (paper Sections VII-A/B).

* :class:`GaloisField` / :func:`get_field` — GF(2^m) table arithmetic.
* :class:`RSCode` — shortened systematic single-symbol-correcting RS
  with PGZ decoding; :func:`rs_144_128` and :func:`rs_80_64` are the
  paper's two baseline configurations, :func:`rs_for_channel` builds the
  Table IV design points (including partial-symbol shortenings).
* :mod:`repro.rs.chipkill` — device/symbol alignment analysis behind the
  "not practical" entries of Table IV.
* :mod:`repro.rs.engine` — batch decode engines (scalar reference,
  vectorised numpy PGZ, native C kernels) behind :func:`get_rs_engine`, with shared
  vectorised corruption generation for the Monte-Carlo studies.
"""

from repro.rs.chipkill import (
    ChipkillAssessment,
    assess,
    device_symbol_span,
    practical_for_dram,
)
from repro.rs.engine import (
    RsDecodeEngine,
    device_confined,
    get_rs_engine,
    rs_msed_corruption_batch,
)
from repro.rs.gf import PRIMITIVE_POLYNOMIALS, GaloisField, get_field
from repro.rs.reed_solomon import (
    RSCode,
    RSDecodeResult,
    RSDecodeStatus,
    rs_80_64,
    rs_144_128,
    rs_for_channel,
)

__all__ = [
    "ChipkillAssessment",
    "GaloisField",
    "PRIMITIVE_POLYNOMIALS",
    "RSCode",
    "RSDecodeResult",
    "RSDecodeStatus",
    "RsDecodeEngine",
    "assess",
    "device_confined",
    "device_symbol_span",
    "get_field",
    "get_rs_engine",
    "practical_for_dram",
    "rs_msed_corruption_batch",
    "rs_144_128",
    "rs_80_64",
    "rs_for_channel",
]
