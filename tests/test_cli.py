"""The dsaa command line end to end through main(argv): gen-data, a short
train run, and zero-mode drive of the resulting checkpoint."""

from dsaa.harness.cli import main
from dsaa.synthdata import load_manifest


def test_gen_data_train_drive(tmp_path):
    data = tmp_path / "data"
    data_cfg = tmp_path / "data.cfg"
    data_cfg.write_text("data.image_size = 32\n")
    assert main(["gen-data", "--config", str(data_cfg), "--out", str(data),
                 "--frames", "3", "--test-fraction", "0", "--seed", "4"]) == 0

    # geo_res 16 gives a shadow grid of 8, unlike the TrainData defaults,
    # so drive must take both resolutions from the checkpoint
    run = tmp_path / "run"
    train_cfg = tmp_path / "train.cfg"
    train_cfg.write_text("train.batch = 2\ntrain.iters = 2\ntrain.phase1 = 1\n"
                         "model.geo_res = 16\nmodel.tex_res = 32\n")
    assert main(["train", "--config", str(train_cfg), "--dataset", str(data),
                 "--out", str(run), "--seed", "1"]) == 0

    frame = load_manifest(data).ids()[0]
    out = tmp_path / "drive"
    assert main(["drive", "--checkpoint", str(run), "--dataset", str(data),
                 "--frames", frame, "--mode", "zero", "--out", str(out)]) == 0
    assert (out / f"{frame}_cam0.ppm").exists()
