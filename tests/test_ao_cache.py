"""The dataset's AO map cache when two TrainData objects share one
dataset: interleaved flushes each rename a temp file of their own, the
last writer's maps win, and a map missing on disk is recomputed
bit-identically."""

from pathlib import Path

import numpy as np

from dsaa import diffcore as dc
from dsaa import synthdata as sd
from dsaa.harness import TrainData


def test_interleaved_flushes_keep_the_last_writers_maps(tmp_path,
                                                        monkeypatch):
    sd.generate_dataset(sd.default_scene(image_size=32, seed=3), tmp_path, 2)
    a, b = TrainData(tmp_path), TrainData(tmp_path)
    first, second = a.ids()[:2]
    map_a, map_b = a.ao(first), b.ao(second)

    real = Path.write_bytes
    inner = []

    def write_then_flush_b(path, data):
        # B flushes between the one writer's write and rename for A
        real(path, data)
        if not inner:
            inner.append(path)
            b.flush_ao()

    monkeypatch.setattr(Path, "write_bytes", write_then_flush_b)
    a.flush_ao()
    monkeypatch.setattr(Path, "write_bytes", real)

    assert inner, "B never flushed"
    assert sorted(p.name for p in tmp_path.glob("ao16*")) == ["ao16.dsaa1"]
    on_disk = dc.load_arrays(tmp_path / "ao16.dsaa1")
    assert list(on_disk) == [first]
    np.testing.assert_array_equal(on_disk[first], map_a[0])
    c = TrainData(tmp_path)
    assert c.ao(first).tobytes() == map_a.tobytes()
    assert c.ao(second).tobytes() == map_b.tobytes()
