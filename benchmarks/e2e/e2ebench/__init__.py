"""The referee benchmark: five workloads, end-to-end metrics, a layer ledger.

Imports only ``repro.core``, ``repro.sim``, ``repro.liquid``,
``repro.gateway`` and ``repro.telemetry``; see ``../README.md``.
"""
