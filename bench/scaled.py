"""Scaled ecosystems: the birth-registration fixture copied k times.

Copy ``i`` (1..k) gets ``-c{i}`` on every id, and `` {i}`` after every actor
name, dependum and ``ssi.alias`` spelling, wherever one of them occurs in an
actor, element or dependency text.  The suffix is plain decimal without
padding, so from k = 11 on one copy's names are prefixes of another's
("Registrar 1" / "Registrar 12").  That is deliberate: name matching that
is not on word boundaries mixes copies up, and the benchmark counts the
copies that end wrong instead of hiding them behind padded names.
"""

from __future__ import annotations

import copy
import json
import re
from pathlib import Path

FIXTURE = Path("fixtures") / "birth_registration.json"


def _names(doc: dict) -> list[str]:
    names = {actor["text"] for actor in doc["actors"]}
    for dep in doc["dependencies"]:
        names.add(dep["text"])
        for alias in dep.get("customProperties", {}).get("ssi.alias", "").split(","):
            if alias.strip():
                names.add(alias.strip())
    # Longest first, so "Mother's ID" wins over "Mother".
    return sorted(names, key=lambda n: (-len(n), n))


def scale_document(doc: dict, k: int) -> dict:
    """Return a model document holding k renamed, disjoint copies of ``doc``."""
    if k < 1:
        raise ValueError("k must be at least 1")
    pattern = re.compile(r"(?<!\w)(" + "|".join(re.escape(n) for n in _names(doc)) + r")(?!\w)")
    out = {key: value for key, value in doc.items() if key not in ("actors", "dependencies", "links")}
    out["actors"], out["dependencies"], out["links"] = [], [], []
    for i in range(1, k + 1):
        suffix = f"-c{i}"

        def rename(text: str) -> str:
            return pattern.sub(lambda m: f"{m.group(1)} {i}", text)

        for actor in doc["actors"]:
            a = copy.deepcopy(actor)
            a["id"] += suffix
            a["text"] = rename(a["text"])
            for node in a.get("nodes", []):
                node["id"] += suffix
                node["text"] = rename(node["text"])
            out["actors"].append(a)
        for dep in doc["dependencies"]:
            d = copy.deepcopy(dep)
            for key in ("id", "source", "target"):
                d[key] += suffix
            d["text"] = rename(d["text"])
            props = d.get("customProperties", {})
            if "ssi.alias" in props:
                props["ssi.alias"] = ",".join(rename(a.strip()) for a in props["ssi.alias"].split(","))
            out["dependencies"].append(d)
        for link in doc["links"]:
            l = copy.deepcopy(link)
            for key in ("id", "source", "target"):
                l[key] += suffix
            out["links"].append(l)
    return out


def scaled_bytes(k: int, fixture: Path = FIXTURE) -> bytes:
    """The fixture copied k times, as model document bytes."""
    return json.dumps(scale_document(json.loads(fixture.read_bytes()), k)).encode("utf-8")


def copy_of(identifier: str) -> int:
    """The copy number an id of a scaled document carries."""
    return int(identifier.rsplit("-c", 1)[1])
