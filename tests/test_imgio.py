"""Bit-exact round-trips for the netpbm readers/writers."""

import numpy as np
import numpy.testing as npt
import pytest

from dsaa import imgio


def test_ppm_uint8_roundtrip(tmp_path):
    r = np.random.default_rng(0)
    img = r.integers(0, 256, size=(3, 7, 5), dtype=np.uint8)
    p = tmp_path / "x.ppm"
    imgio.write_ppm(p, img)
    back = imgio.read_ppm(p, as_float=False)
    npt.assert_array_equal(back, img)


def test_ppm_float_quantization_roundtrip(tmp_path):
    r = np.random.default_rng(1)
    img = r.random(size=(3, 6, 9))
    p = tmp_path / "x.ppm"
    imgio.write_ppm(p, img)
    back = imgio.read_ppm(p)
    # read-back equals the quantized image exactly
    q = np.round(img * 255.0) / 255.0
    npt.assert_allclose(back, q, atol=1e-12)
    # a second write of the read-back is byte-identical
    p2 = tmp_path / "y.ppm"
    imgio.write_ppm(p2, back)
    assert p.read_bytes() == p2.read_bytes()


def test_pgm_8bit_roundtrip(tmp_path):
    img = np.arange(35, dtype=np.uint8).reshape(5, 7)
    p = tmp_path / "m.pgm"
    imgio.write_pgm(p, img)
    npt.assert_array_equal(imgio.read_pgm(p, as_float=False), img)


def test_header_comments_are_skipped(tmp_path):
    p = tmp_path / "c.pgm"
    payload = bytes(range(6))
    p.write_bytes(b"P5\n# a comment\n3 2\n255\n" + payload)
    img = imgio.read_pgm(p, as_float=False)
    npt.assert_array_equal(img, np.frombuffer(payload, np.uint8).reshape(2, 3))


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "bad.ppm"
    p.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
    with pytest.raises(ValueError, match="P6"):
        imgio.read_ppm(p)


def test_truncated_payload_rejected(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 10)
    with pytest.raises(ValueError, match="truncated"):
        imgio.read_pgm(p)
