"""Reference OBJ writer for the mesh I/O tests: the per-line f-string
loop that ``dsaa.body.save_obj`` replaced. The section templates must
write the same bytes. Test oracle only; production code calls
``save_obj``.
"""

from __future__ import annotations

import numpy as np


def save_obj_oracle(path, verts: np.ndarray, faces: np.ndarray, uvs: np.ndarray) -> None:
    with open(path, "w") as f:
        for v in verts:
            f.write(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for t in uvs:
            f.write(f"vt {t[0]:.17g} {t[1]:.17g}\n")
        for a, b, c in faces + 1:
            f.write(f"f {a}/{a} {b}/{b} {c}/{c}\n")
