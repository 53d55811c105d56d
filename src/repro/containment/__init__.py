"""Query containment: the paper's bounded-chase procedure and the baseline.

The package itself defines no names.  The public surface is exported by
:mod:`repro` (``from repro import is_contained, ContainmentResult, ...``)
and by the :class:`repro.api.Engine` facade; code inside the library
imports the concrete submodules (:mod:`~repro.containment.bounded`,
:mod:`~repro.containment.result`, ...) directly.
"""
