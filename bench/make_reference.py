"""Record the diagram workload's reference output.

    python3 bench/make_reference.py

Runs ``fdsw diagram`` for each diagram model exactly as the benchmark does
and stores its grid labels (run-length encoded), the SHA-256 of its grid
CSV and its mechanism-curve points under ``bench/reference/``.  The
committed files hold the output of commit 26f6090 (the package as first
released); re-record only after a change whose new diagram output has been
checked against the old one.
"""

from __future__ import annotations

import json
from itertools import groupby

from run import OUT_DIR, import_fdsw, plain_api


def main() -> None:
    import_fdsw()
    from workloads import DIAGRAM_MODELS, DIAGRAM_RESOLUTION, REFERENCE_DIR, Diagram, read_diagram

    OUT_DIR.mkdir(exist_ok=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    diagram = Diagram(OUT_DIR)
    for model in DIAGRAM_MODELS:
        rc, grid, curves = diagram.run(plain_api(), model)
        if rc != 0:
            raise SystemExit(f"fdsw diagram --model {model.value} exited {rc}")
        labels, grid_sha256, points = read_diagram(grid, curves)
        grid.unlink()
        curves.unlink()
        ref = {
            "model": model.value,
            "resolution": DIAGRAM_RESOLUTION,
            "labels_rle": [[lab, len(list(run))] for lab, run in groupby(labels)],
            "grid_sha256": grid_sha256,
            "curves": points,
        }
        path = REFERENCE_DIR / f"diagram-{model.value}.json"
        with open(path, "w") as fh:
            json.dump(ref, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"wrote {path}: {len(labels)} labels, {len(ref['labels_rle'])} runs")


if __name__ == "__main__":
    main()
