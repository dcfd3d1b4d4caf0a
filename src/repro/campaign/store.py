"""Durable, resumable result store for experiment campaigns.

Layout of one run directory::

    run-dir/
      manifest.json     # config hash, seed, schema version, cell ids
      results.jsonl     # append-only records, one JSON object per line
      work/             # per-attempt scratch: cell specs, outputs, heartbeats
      report.json       # structured failure report (written at campaign end)

Durability comes from :mod:`repro.durable`: the manifest and report land
through ``atomic_write``, and ``results.jsonl`` is a
:class:`~repro.durable.ChecksummedLog` — O(1) appends, a SHA-256 of each
record's canonical JSON, and a ``schema`` stamp.  A truncated tail, a
flipped byte, a half-merged line or a record from an incompatible
version fails closed: it is *reported* as corrupt and its cell re-queued
(re-run), never silently trusted.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign.cells import SCHEMA_VERSION, CampaignConfig, CellSpec
from repro.durable import ChecksummedLog, Reject, atomic_write
from repro.errors import CampaignError, ManifestMismatch, ResultCorruption


class CorruptRecord(Reject):
    """One rejected ``results.jsonl`` line."""

    @property
    def cell_id(self) -> str:
        """The cell the record claimed to belong to, when legible."""
        return str((self.record or {}).get("cell_id", ""))

    def __str__(self) -> str:
        where = f" (cell {self.cell_id})" if self.cell_id else ""
        return f"line {self.line_no}: {self.reason}{where}"


class ResultStore:
    """Append-only JSONL store with checksums, bound to one run directory."""

    MANIFEST = "manifest.json"
    RESULTS = "results.jsonl"
    WORK = "work"
    REPORT = "report.json"

    def __init__(self, run_dir: str):
        self.run_dir = run_dir
        self.results_path = os.path.join(run_dir, self.RESULTS)
        self.manifest_path = os.path.join(run_dir, self.MANIFEST)
        self.report_path = os.path.join(run_dir, self.REPORT)
        self.work_dir = os.path.join(run_dir, self.WORK)
        self._log = ChecksummedLog(self.results_path, SCHEMA_VERSION)

    # ------------------------------------------------------------------
    # manifest
    # ------------------------------------------------------------------

    def initialize(self, config: CampaignConfig,
                   cells: Sequence[CellSpec]) -> None:
        """Create the run directory and write its manifest."""
        os.makedirs(self.work_dir, exist_ok=True)
        manifest = {
            "schema": SCHEMA_VERSION,
            "config_hash": config.config_hash(),
            "config": config.to_dict(),
            "seed": config.seed,
            "cells": [cell.cell_id for cell in cells],
        }
        atomic_write(self.manifest_path, json.dumps(manifest, indent=2))

    def load_manifest(self) -> dict:
        if not os.path.exists(self.manifest_path):
            raise CampaignError(
                f"{self.run_dir}: no manifest.json — not a campaign run "
                "directory (or its creation was interrupted before the "
                "first atomic manifest write)")
        with open(self.manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        if manifest.get("schema") != SCHEMA_VERSION:
            raise CampaignError(
                f"{self.run_dir}: manifest schema "
                f"{manifest.get('schema')!r} != supported {SCHEMA_VERSION}")
        return manifest

    def resume_config(self,
                      expected: Optional[CampaignConfig] = None
                      ) -> CampaignConfig:
        """Reload the manifest's config, verifying the hash.

        With ``expected`` the caller supplies its own config, and a hash
        mismatch (changed parameters against an old run directory) is
        fail-stop: :class:`~repro.errors.ManifestMismatch`.
        """
        manifest = self.load_manifest()
        config = CampaignConfig.from_dict(manifest["config"])
        recorded = manifest["config_hash"]
        if config.config_hash() != recorded:
            raise ManifestMismatch(recorded, config.config_hash(),
                                   "manifest hash does not match its own "
                                   "config — manifest edited by hand?")
        if expected is not None and expected.config_hash() != recorded:
            raise ManifestMismatch(recorded, expected.config_hash())
        return config

    # ------------------------------------------------------------------
    # records
    # ------------------------------------------------------------------

    def append(self, record: dict) -> None:
        """Durably append one record (schema and checksum added here)."""
        self._log.append(record)

    def load(self, strict: bool = False
             ) -> Tuple[List[dict], List[CorruptRecord]]:
        """All intact records plus a report of every rejected line.

        ``strict=True`` raises :class:`~repro.errors.ResultCorruption` on
        the first bad line instead of collecting it.
        """
        records, rejects = self._log.load()
        if strict and rejects:
            raise ResultCorruption(rejects[0].line_no, rejects[0].reason)
        return records, [CorruptRecord(r.line_no, r.reason, r.record)
                         for r in rejects]

    def completed(self, expected_ids: Sequence[str]
                  ) -> Tuple[Dict[str, dict], List[CorruptRecord]]:
        """Map of cell_id -> latest *ok* record, restricted to this
        campaign's cells; anything corrupt or unknown is left pending."""
        records, corrupt = self.load()
        expected = set(expected_ids)
        done: Dict[str, dict] = {}
        for record in records:
            cell_id = record.get("cell_id")
            if record.get("status") == "ok" and cell_id in expected:
                done[cell_id] = record
        return done, corrupt

    # ------------------------------------------------------------------
    # report
    # ------------------------------------------------------------------

    def write_report(self, report: dict) -> None:
        atomic_write(self.report_path, json.dumps(report, indent=2))
