"""The paper's primary contribution: the parameterized CDPU generator.

Public surface:

* :class:`~repro.core.params.CdpuConfig` — every §5.8 parameter.
* :class:`~repro.core.generator.CdpuGenerator` — elaborates pipelines.
* :mod:`~repro.core.area` — the calibrated silicon-area model.
* :mod:`~repro.core.calibration` — every paper anchor and derived constant.

Nothing is re-exported here: ``calibration`` is imported by ``repro.soc``,
which the generator and pipelines import in turn, so an eager re-export would
close an import cycle. Import each name from its defining module.
"""
