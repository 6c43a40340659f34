"""Kernel file format: an `ell=<N>` header (2 <= N <= 16), then one hex
word per row, top row first.  `#` starts a comment.  Column 0 of a row is
the most significant bit of its hex word."""

from __future__ import annotations

from pathlib import Path

from polarkit.gf2 import MAX_ELL, MIN_ELL, BitMatrix


class KernelFileError(ValueError):
    pass


def parse_kernel_text(text: str) -> BitMatrix:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines or not lines[0].replace(" ", "").startswith("ell="):
        raise KernelFileError("missing `ell=<N>` header line")
    try:
        ell = int(lines[0].split("=", 1)[1])
    except ValueError as exc:
        raise KernelFileError(f"bad ell header: {lines[0]!r}") from exc
    if not MIN_ELL <= ell <= MAX_ELL:
        raise KernelFileError(f"ell {ell} outside the supported range [{MIN_ELL}, {MAX_ELL}]")
    if len(lines) - 1 != ell:
        raise KernelFileError(f"expected {ell} rows, found {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        try:
            value = int(line, 16)
        except ValueError as exc:
            raise KernelFileError(f"bad hex row {line!r}") from exc
        if not 0 <= value < (1 << ell):
            raise KernelFileError(f"row {line!r} does not fit in {ell} columns")
        rows.append(value)
    return BitMatrix(ell, tuple(rows))


def read_kernel(path: str | Path) -> BitMatrix:
    return parse_kernel_text(Path(path).read_text())


def format_kernel(kernel: BitMatrix) -> str:
    width = (kernel.ncols + 3) // 4
    lines = [f"ell={kernel.ncols}"]
    lines += [f"0x{r:0{width}X}" for r in kernel.rows]
    return "\n".join(lines) + "\n"


def write_kernel(path: str | Path, kernel: BitMatrix) -> None:
    Path(path).write_text(format_kernel(kernel))
