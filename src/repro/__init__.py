"""Python reproduction of *CDPU: Co-designing Compression and Decompression
Processing Units for Hyperscale Systems* (Karandikar et al., ISCA 2023).

Top-level public API — the pieces a downstream user composes:

* **Codecs** (:mod:`repro.algorithms`): from-scratch Snappy (wire-compatible),
  ZStd-like, Flate-like, Gipfeli-like, LZO-like, built from shared LZ77 /
  Huffman / FSE primitives.
* **Fleet model** (:mod:`repro.fleet`): GWP-like call sampling calibrated to
  every statistic the paper publishes, plus the Figures 1-6 analyses.
* **HyperCompressBench** (:mod:`repro.hcbench`): the benchmark generator that
  turns fleet summary statistics into representative suites (Figure 7).
* **CDPU generator** (:mod:`repro.core`): the parameterized hardware model —
  blocks, pipelines, placements, calibrated area/cycle accounting.
* **DSE harness** (:mod:`repro.dse`): the Figure 11-15 sweeps and the
  regenerated summary claims.

Quick start::

    from repro import CdpuConfig, CdpuGenerator, Operation, get_codec

    codec = get_codec("snappy")
    payload = codec.compress(b"hyperscale " * 1000)

    cdpu = CdpuGenerator().generate(CdpuConfig())
    result = cdpu.pipeline("snappy", Operation.DECOMPRESS).run(payload, verify=True)
    print(result.throughput_gbps, "GB/s model throughput")

Each top-level name loads its defining module on first use, so ``import
repro`` imports no subpackage and ``repro lint`` needs only the standard
library.
"""

import importlib
from typing import List

#: Public name -> the module that defines it, imported when the name is
#: first read (PEP 562).
_EXPORTS = {
    "CdpuConfig": "repro.core.params",
    "CdpuGenerator": "repro.core.generator",
    "CdpuInstance": "repro.core.generator",
    "CorruptStreamError": "repro.common.errors",
    "DseRunner": "repro.dse.runner",
    "ReproError": "repro.common.errors",
    "Operation": "repro.algorithms.base",
    "Placement": "repro.soc.placement",
    "XeonBaseline": "repro.soc.xeon",
    "available_codecs": "repro.algorithms.registry",
    "default_benchmark": "repro.hcbench.suite",
    "generate_fleet_profile": "repro.fleet.profile",
    "generate_hypercompressbench": "repro.hcbench.suite",
    "get_codec": "repro.algorithms.registry",
    "get_info": "repro.algorithms.registry",
}

__version__ = "1.0.0"

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(_EXPORTS))
