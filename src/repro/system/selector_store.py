"""Selector management: save, list, load and delete trained selectors.

Mirrors the "Selector Management" component of the demo system: users train
selectors, persist them under a name, and later reload them for model
selection without re-training.  NN selectors are stored as architecture
metadata plus a parameter archive; non-NN selectors are pickled.

A name with no entry raises ``KeyError``; an entry that exists but cannot
be restored (unreadable manifest, unknown selector type, a manifest whose
neural flag contradicts the type, unreadable payload files) raises
:class:`CorruptSelectorError`, which names the entry and the reason.
"""

from __future__ import annotations

import json
import pickle
import shutil
import zipfile
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Union

from .. import nn
from ..selectors.base import Selector, make_selector, selector_names
from ..selectors.nn_selector import NNSelector
from ..selectors.teacher_int8 import quant_summary

PathLike = Union[str, Path]

#: what restoring a corrupt payload file can raise
_PAYLOAD_ERRORS = (OSError, ValueError, KeyError, TypeError, EOFError,
                   pickle.UnpicklingError, zipfile.BadZipFile)


class CorruptSelectorError(ValueError):
    """A stored selector entry exists but cannot be restored."""

    def __init__(self, name: str, reason: str) -> None:
        super().__init__(f"stored selector {name!r} is corrupt: {reason}")
        self.name = name
        self.reason = reason


@dataclass(frozen=True)
class StoredSelectorInfo:
    """Manifest entry describing one stored selector."""

    name: str
    selector_type: str
    is_neural: bool
    created_at: str
    metadata: Dict[str, object]


class SelectorStore:
    """A small on-disk registry of trained selectors."""

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------ #
    def _entry_dir(self, name: str) -> Path:
        if not name or "/" in name or name.startswith("."):
            raise ValueError(f"invalid selector name {name!r}")
        return self.root / name

    def save(self, name: str, selector: Selector, metadata: Optional[Dict[str, object]] = None,
             overwrite: bool = False) -> StoredSelectorInfo:
        """Persist a trained selector under ``name``."""
        entry = self._entry_dir(name)
        if entry.exists():
            if not overwrite:
                raise FileExistsError(f"selector {name!r} already exists (pass overwrite=True to replace)")
            shutil.rmtree(entry)
        entry.mkdir(parents=True)

        merged = dict(metadata or {})
        provenance = getattr(selector, "quant_provenance", None)
        if provenance and "quantization" not in merged:
            # compact manifest form: enough to audit the int8 payload
            # (the full per-conv scale table rides in encoder.npz metadata)
            merged["quantization"] = quant_summary(selector)

        info = StoredSelectorInfo(
            name=name,
            selector_type=selector.name,
            is_neural=isinstance(selector, NNSelector),
            created_at=datetime.now(timezone.utc).isoformat(),
            metadata=merged,
        )

        if isinstance(selector, NNSelector):
            selector.build()
            arch = {
                "window": selector.window,
                "n_classes": selector.n_classes,
                "seed": selector.seed,
                "arch_kwargs": selector.arch_kwargs,
            }
            (entry / "architecture.json").write_text(json.dumps(arch, indent=2))
            nn.save_state(selector.encoder, entry / "encoder.npz",
                          metadata={"quant_provenance": provenance} if provenance else None)
            nn.save_state(selector.classifier, entry / "classifier.npz")
        else:
            with open(entry / "model.pkl", "wb") as handle:
                pickle.dump(selector, handle)

        (entry / "manifest.json").write_text(json.dumps({
            "name": info.name,
            "selector_type": info.selector_type,
            "is_neural": info.is_neural,
            "created_at": info.created_at,
            "metadata": info.metadata,
        }, indent=2))
        return info

    # ------------------------------------------------------------------ #
    def load(self, name: str) -> Selector:
        """Reconstruct a stored selector."""
        entry = self._entry_dir(name)
        manifest = self.info(name)
        kind = manifest.selector_type
        if kind not in selector_names():
            raise CorruptSelectorError(name, f"unknown selector type {kind!r}")
        if manifest.is_neural != (kind in selector_names(neural=True)):
            raise CorruptSelectorError(
                name, f"manifest marks {kind!r} as "
                      f"{'neural' if manifest.is_neural else 'non-neural'}")
        try:
            if not manifest.is_neural:
                with open(entry / "model.pkl", "rb") as handle:
                    return pickle.load(handle)
            arch = json.loads((entry / "architecture.json").read_text())
            selector = make_selector(
                kind,
                window=arch["window"],
                n_classes=arch["n_classes"],
                seed=arch["seed"],
                **arch["arch_kwargs"],
            )
            selector.build()
            state_meta = nn.load_state(selector.encoder, entry / "encoder.npz")
            nn.load_state(selector.classifier, entry / "classifier.npz")
        except _PAYLOAD_ERRORS as error:
            raise CorruptSelectorError(
                name, f"unreadable payload ({type(error).__name__}: {error})") from error
        if state_meta.get("quant_provenance"):
            selector.quant_provenance = state_meta["quant_provenance"]
        return selector

    def info(self, name: str) -> StoredSelectorInfo:
        entry = self._entry_dir(name)
        manifest_path = entry / "manifest.json"
        if not manifest_path.exists():
            raise KeyError(f"no stored selector named {name!r}")
        try:
            data = json.loads(manifest_path.read_text())
            return StoredSelectorInfo(
                name=data["name"],
                selector_type=data["selector_type"],
                is_neural=data["is_neural"],
                created_at=data["created_at"],
                metadata=data.get("metadata", {}),
            )
        except (ValueError, KeyError, TypeError) as error:
            raise CorruptSelectorError(
                name, f"unreadable manifest.json ({type(error).__name__}: {error})") from error

    def list(self) -> List[StoredSelectorInfo]:
        """All stored selectors, newest first."""
        infos = []
        for entry in self.root.iterdir():
            if entry.is_dir() and (entry / "manifest.json").exists():
                infos.append(self.info(entry.name))
        return sorted(infos, key=lambda info: info.created_at, reverse=True)

    def __contains__(self, name: str) -> bool:
        try:
            self.info(name)
            return True
        except (KeyError, ValueError):
            return False
