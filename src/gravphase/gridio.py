"""Load/store for scalar grid data: raw little-endian float64 payload with a
JSON sidecar header.  The flat payload is written x-fastest (Fortran order
for arrays indexed [ix, iy, iz])."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

HEADER_SUFFIX = ".json"


def save_scalar_grid(path, values: np.ndarray, box: float, units: str = "", mass: float | None = None) -> None:
    path = Path(path)
    values = np.asarray(values, dtype="<f8")
    n = values.shape[0]
    if values.shape != (n, n, n):
        raise ValueError("expected a cubic N^3 array")
    header = {
        "N": int(n),
        "L": float(box),
        "units": units,
        "mass": None if mass is None else float(mass),
        "dtype": "<f8",
        "order": "x-fastest",
    }
    path.write_bytes(values.ravel(order="F").tobytes())
    Path(str(path) + HEADER_SUFFIX).write_text(json.dumps(header, indent=2) + "\n")


def read_header(path) -> tuple[int, float, dict]:
    """(N, L, header) of the grid file at `path`, from its JSON sidecar header,
    once the payload, which is not read, holds N^3 float64 values.  Raises
    ValueError naming the rule a file breaks."""
    try:
        header = json.loads(Path(str(path) + HEADER_SUFFIX).read_text())
        n, box = int(header["N"]), float(header["L"])
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"unreadable grid header {path}{HEADER_SUFFIX}: {exc!r}") from None
    size = Path(path).stat().st_size
    if size != 8 * n**3:
        raise ValueError(f"grid file payload has {size} bytes, header N = {n} needs {8 * n**3}")
    return n, box, header


def load_scalar_grid(path):
    """Returns (values, box, header_dict), after the checks of `read_header`."""
    n, box, header = read_header(path)
    raw = np.frombuffer(Path(path).read_bytes(), dtype="<f8")
    return raw.reshape((n, n, n), order="F").copy(), box, header
