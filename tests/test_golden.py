"""Golden reports: SHA-256 sums of small CLI outputs, asserted byte for byte.

Each case runs `confee` in a fresh directory with relative paths, so the
reports (which record their input paths in "config") do not depend on
where the test runs. A refactor must leave every sum unchanged; a change
that alters numbers on purpose regenerates the sums and says why.
"""

import hashlib

import pytest

from confee import cli

TRAIN_GM2D = ("gen", "--scenario", "gm2d", "--n", "40", "--seed", "7", "--out", "gm2d.csv")
TRAIN_LINREG3 = ("gen", "--scenario", "linreg3", "--n", "30", "--seed", "3", "--out", "linreg3.csv")
TEST_WITH_Y = "x1,x2,x3,y\n0.5,-1.0,0.25,1.5\n-0.3,0.8,1.2,-2.0\n"
TEST_WITHOUT_Y = "x1,x2,x3\n1.0,0.0,-0.5\n0.1,0.2,0.3\n"

GM2D = ("--input", "gm2d.csv", "--labels", "0,1", "--seed", "5")
LINREG3 = ("--input", "linreg3.csv", "--grid=-6,-3,0,3,6", "--seed", "5")
CROSS_RIDGE = ("predict", *LINREG3, "--predictor", "cross", "--K", "5", "--rule", "ridge",
               "--verbose")

CASES = {
    "gen-gm2d": (
        TRAIN_GM2D,
        "gm2d.csv",
        "01aedede3e4481b2156fd9920c9e6a26d7240ed37eb54e78b8cbd5b0445108d9",
    ),
    "gen-linreg3": (
        TRAIN_LINREG3,
        "linreg3.csv",
        "0729a605277540639702c93a6a96af540e2fb3537fd487522726335ba3700bf8",
    ),
    "predict-cross-knn-verbose": (
        ("predict", *GM2D, "--predictor", "cross", "--K", "5", "--rule", "knn", "--k", "3",
         "--x", "0.1,0.2", "--x", "-1.5,2.0", "--verbose", "--out", "rep.json"),
        "rep.json",
        "8b7c0365f23bbfbd13235d6913c831532b5aaa8f47b9b46c44c764c6dcdab0ea",
    ),
    "predict-cross-ridge-verbose-test-y": (
        (*CROSS_RIDGE, "--test", "test_y.csv", "--x", "0.0,0.0,0.0", "--out", "rep.json"),
        "rep.json",
        "5c32f4c632f8c7d5bb1fc71a0bb570b13de074257088799e72b17c103f1a6450",
    ),
    "predict-cross-ridge-verbose-test-no-y": (
        (*CROSS_RIDGE, "--test", "test_no_y.csv", "--out", "rep.json"),
        "rep.json",
        "8ca4a71c721db0b10abefe55b6ab933d560428033216f53545ef64a1c4b64bde",
    ),
    "predict-split": (
        ("predict", *GM2D, "--predictor", "split", "--c", "10", "--x", "0.3,-0.2",
         "--verbose", "--out", "rep.json"),
        "rep.json",
        "248fcdd0d8b067d69875cd55babe614021fc1e8228ac5beca51252a3d7999165",
    ),
    "predict-full": (
        ("predict", *GM2D, "--predictor", "full", "--margin-w", "-2.0,0.0", "--margin-b",
         "0.25", "--x", "0.3,-0.2", "--verbose", "--out", "rep.json"),
        "rep.json",
        "9e3bb3be97998edca1e2d516b665a64b0ca0bfa9e89235e1827461c583274e54",
    ),
    "predict-const2": (
        ("predict", *GM2D, "--predictor", "const2", "--x", "0.3,-0.2", "--out", "rep.json"),
        "rep.json",
        "f550e2f880575c2d1e2609c8a7c4ea132ae346a443fb22e7db2bff8b5b27d8e6",
    ),
    "validate-space": (
        ("validate", "--mode", "space", "--trials", "500", "--n", "30", "--seed", "1",
         "--out", "rep.json"),
        "rep.json",
        "3a6016ce2b34e9b173b46dc4d88b16ebe09c3f4cba585c3a917bba5b00c0fc3f",
    ),
    "validate-compare": (
        ("validate", "--mode", "compare", "--trials", "500", "--n", "30", "--seed", "1",
         "--out", "rep.json"),
        "rep.json",
        "308211d6adce58e0322733ecc1baa1fd98f062b8b86db88eb59efc4fbaf485ea",
    ),
    "validate-time": (
        ("validate", "--mode", "time", "--rounds", "200", "--warmup", "20", "--seed", "1",
         "--out", "rep.json"),
        "rep.json",
        "fcaa8b6b0f97426a4f83a6749f6daba8b4b74c8a8c6183fbeecc0deaa191758d",
    ),
}


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(list(TRAIN_GM2D)) == 0
    assert cli.main(list(TRAIN_LINREG3)) == 0
    (tmp_path / "test_y.csv").write_text(TEST_WITH_Y)
    (tmp_path / "test_no_y.csv").write_text(TEST_WITHOUT_Y)
    return tmp_path


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(workdir, name):
    argv, output, expected = CASES[name]
    assert cli.main(list(argv)) == 0
    digest = hashlib.sha256((workdir / output).read_bytes()).hexdigest()
    assert digest == expected, f"{name}: report bytes changed"
