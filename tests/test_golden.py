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
        "c5a174617d8f294654de804a175b7a8e677c45edcd8812c00c5dbc579a9f8bd3",
    ),
    "gen-linreg3": (
        TRAIN_LINREG3,
        "linreg3.csv",
        "444dec0abd96686688f3f63ee13b9de503cfe3f3b445f20b4668a0c6cac8a1d2",
    ),
    "predict-cross-knn-verbose": (
        ("predict", *GM2D, "--predictor", "cross", "--K", "5", "--rule", "knn", "--k", "3",
         "--x", "0.1,0.2", "--x", "-1.5,2.0", "--verbose", "--out", "rep.json"),
        "rep.json",
        "23b1f10b4ee8c0b18ca0657a6594955bf75919c49dfe29c45220f3254545eee8",
    ),
    "predict-cross-ridge-verbose-test-y": (
        (*CROSS_RIDGE, "--test", "test_y.csv", "--x", "0.0,0.0,0.0", "--out", "rep.json"),
        "rep.json",
        "1ac7231dc573eb01a8eb9a783f27b220cd2a39930d4dc1860176d204d3306610",
    ),
    "predict-cross-ridge-verbose-test-no-y": (
        (*CROSS_RIDGE, "--test", "test_no_y.csv", "--out", "rep.json"),
        "rep.json",
        "6e872a3278c84b2fe42cfaec69acc961619f28a818436a6aa1c62e401addfb27",
    ),
    "predict-split": (
        ("predict", *GM2D, "--predictor", "split", "--c", "10", "--x", "0.3,-0.2",
         "--verbose", "--out", "rep.json"),
        "rep.json",
        "a209fb74fccc4a24d5e3445d493ead3201ade8a49aafbe037bb3f9b99bd49533",
    ),
    "predict-full": (
        ("predict", *GM2D, "--predictor", "full", "--margin-w", "-2.0,0.0", "--margin-b",
         "0.25", "--x", "0.3,-0.2", "--verbose", "--out", "rep.json"),
        "rep.json",
        "399b07a0e733c9559099b04bd6098bc3b0e6586309b1eecc7f91e0a97d8bbfbf",
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
        "bbb0c965b74f896143b7a718bfecfccac5c0a8b57fa0d728bbafa211fad88340",
    ),
    "validate-compare": (
        ("validate", "--mode", "compare", "--trials", "500", "--n", "30", "--seed", "1",
         "--out", "rep.json"),
        "rep.json",
        "8d12e50833f4a374066b1f386e7b0c692a1a1814cab04f891c3f3da28d0b8661",
    ),
    "validate-time": (
        ("validate", "--mode", "time", "--rounds", "200", "--warmup", "20", "--seed", "1",
         "--out", "rep.json"),
        "rep.json",
        "b5ae6a4e48befcfefc5975233400a8ec8825902b854c3c67f654d00606bbaba8",
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
