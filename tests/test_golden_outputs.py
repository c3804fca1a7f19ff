"""Golden outputs: the sha256 of every file `run_experiment` writes.

A harness refactor that must leave every output byte unchanged runs this
file unchanged before and after.  The run covers all three variants, two
epsilons, and 12 seeds, so that the str-sorted order of traces/ and
plotdata.csv puts seed 10 before seed 2.  Serial and pooled runs must write
the same bytes.  The private cells eliminate at phases that the noise
decides.
"""

import hashlib
import os
from dataclasses import replace

import pytest

from shufflebandit.harness import ExperimentConfig, run_experiment

from golden_pins import needs_numpy

pytestmark = needs_numpy

CONFIG = ExperimentConfig(
    k=3, means=(1.0, 0.6, 0.0), horizon=20000,
    variants=("sdp-ae", "vb-sdp-ae", "ae-baseline"), epsilons=(0.5, 1.0),
    deltas=(0.5,), seeds=12, master_seed=2024,
    checkpoints=(1000, 5000, 20000), output="", baseline_m=10)

CHECKPOINT_RUN = {
    'manifest.json':
        'c62c669167cd04b85325352510cf19edb4141e1b13e3dec1b1b8d649b1c14dcc',
    'plotdata.csv':
        'a3738765e91a6d81273dbdbd31dbf770f9f39a5d231503a5e46b347d48c4b189',
    'results.csv':
        '551dbba12523f8dafc9a68a44692cc0a1e6d08ebeea31e71087ed632b2596fe9',
    'traces/ae-baseline_none_none_0.csv':
        '90e35e9c184c60ad701a62b90dd3cc07d9a76adab6cfd80773e9577acd89d533',
    'traces/ae-baseline_none_none_1.csv':
        'b72f8a223375a0e31cff3e4aed6340735b62098730c0d65e8ddb17b1449dfd7b',
    'traces/ae-baseline_none_none_10.csv':
        'e9c39eca98e8240aa537ed9fdfc1f3ce56f2c8c1ad254c95342fa8cc643b224b',
    'traces/ae-baseline_none_none_11.csv':
        'e3bdf48d613e653ebefcb3ef3100d55fdfc84b269cdb914036adfc76a1d55f76',
    'traces/ae-baseline_none_none_2.csv':
        'e88cdc9bc1485d8b50e4b4e6ad181e00dea76f49e52bfd624310a71ceeb4c7d0',
    'traces/ae-baseline_none_none_3.csv':
        '59b7996b73f54ce1450f4ab75f9120fc32d1f2c0f87ac1a65da5d3c270d4b76f',
    'traces/ae-baseline_none_none_4.csv':
        'e9c39eca98e8240aa537ed9fdfc1f3ce56f2c8c1ad254c95342fa8cc643b224b',
    'traces/ae-baseline_none_none_5.csv':
        'e88cdc9bc1485d8b50e4b4e6ad181e00dea76f49e52bfd624310a71ceeb4c7d0',
    'traces/ae-baseline_none_none_6.csv':
        '1173305877a9218a3953c0aa3336b25aa2ce79cf46785d5a32605ce94b97fb2f',
    'traces/ae-baseline_none_none_7.csv':
        '442b69c166a2d20a9bf34a304f1e2feb9729df4a6a6997f35ef5b47c69f54721',
    'traces/ae-baseline_none_none_8.csv':
        'ce34cec42688a1791f69d97a6d00c802e3f20a64c7085e195a150ccbd3aca13d',
    'traces/ae-baseline_none_none_9.csv':
        'e9c39eca98e8240aa537ed9fdfc1f3ce56f2c8c1ad254c95342fa8cc643b224b',
    'traces/sdp-ae_0.5_0.5_0.csv':
        'dea4fb0890045dd9226f45d8f08d829cef2438afa10b84781b121cd0dbde9866',
    'traces/sdp-ae_0.5_0.5_1.csv':
        'dea4fb0890045dd9226f45d8f08d829cef2438afa10b84781b121cd0dbde9866',
    'traces/sdp-ae_0.5_0.5_10.csv':
        'dea4fb0890045dd9226f45d8f08d829cef2438afa10b84781b121cd0dbde9866',
    'traces/sdp-ae_0.5_0.5_11.csv':
        'dea4fb0890045dd9226f45d8f08d829cef2438afa10b84781b121cd0dbde9866',
    'traces/sdp-ae_0.5_0.5_2.csv':
        'dea4fb0890045dd9226f45d8f08d829cef2438afa10b84781b121cd0dbde9866',
    'traces/sdp-ae_0.5_0.5_3.csv':
        'dea4fb0890045dd9226f45d8f08d829cef2438afa10b84781b121cd0dbde9866',
    'traces/sdp-ae_0.5_0.5_4.csv':
        'dea4fb0890045dd9226f45d8f08d829cef2438afa10b84781b121cd0dbde9866',
    'traces/sdp-ae_0.5_0.5_5.csv':
        'dea4fb0890045dd9226f45d8f08d829cef2438afa10b84781b121cd0dbde9866',
    'traces/sdp-ae_0.5_0.5_6.csv':
        'dea4fb0890045dd9226f45d8f08d829cef2438afa10b84781b121cd0dbde9866',
    'traces/sdp-ae_0.5_0.5_7.csv':
        'dea4fb0890045dd9226f45d8f08d829cef2438afa10b84781b121cd0dbde9866',
    'traces/sdp-ae_0.5_0.5_8.csv':
        'dea4fb0890045dd9226f45d8f08d829cef2438afa10b84781b121cd0dbde9866',
    'traces/sdp-ae_0.5_0.5_9.csv':
        'dea4fb0890045dd9226f45d8f08d829cef2438afa10b84781b121cd0dbde9866',
    'traces/sdp-ae_1.0_0.5_0.csv':
        '61af2d0b27892d77578e02a8c92700cda4f942ea9f124817bd71ac85b04ab0eb',
    'traces/sdp-ae_1.0_0.5_1.csv':
        'd913b2917a7ba753cc5d331db4bc0e76efd60d4a9d5064806c703ac02bbf5978',
    'traces/sdp-ae_1.0_0.5_10.csv':
        '264e468d8d232457764ab834ed29695e6d59280d35988059470d8f0e93dac05a',
    'traces/sdp-ae_1.0_0.5_11.csv':
        'f907f91619678eebe003be6cbbabfe19981aee2876d05fffc8ddec9545af03d7',
    'traces/sdp-ae_1.0_0.5_2.csv':
        'f1c0c3d16fa60e18df24152f76abfe7df2fec5614e0e0a64b79987ec0072415b',
    'traces/sdp-ae_1.0_0.5_3.csv':
        'eca86ecf12bd25737d9b9ba89b258ffab45fbed46d1e4879f4b8d59a9cfc93f4',
    'traces/sdp-ae_1.0_0.5_4.csv':
        'e4b65a5980078d0a96bd39c23d86932f3ce6fed8fb02276a96370390d36bae6f',
    'traces/sdp-ae_1.0_0.5_5.csv':
        'f21f5920836ad71928e54f8fac34b5ec9e0d2dd1c030868c92cc8eafbc417fd0',
    'traces/sdp-ae_1.0_0.5_6.csv':
        'd9433d49b8fe857d850f08841615a71864e3b50363ff48e41ec8f057ebba604a',
    'traces/sdp-ae_1.0_0.5_7.csv':
        '33eb194b2f05cf3e75369caede467c09626ce270cdfc9f6251c7baaa6648a284',
    'traces/sdp-ae_1.0_0.5_8.csv':
        '57e7e44289f53fc00f66c66808ab57d032f88a5f91d68ffd2ef28f107a9a9b8d',
    'traces/sdp-ae_1.0_0.5_9.csv':
        'e764403c740837d369d761d7047cbb212d6ce1c04e226684f108e366920d539c',
    'traces/vb-sdp-ae_0.5_0.5_0.csv':
        '422f8753099060880146ac82e8915645b4cdea7fc55f8df58faebddcd1a84934',
    'traces/vb-sdp-ae_0.5_0.5_1.csv':
        '69784b77078bb4df9d2713591010e81e0b179771a7d702dee50e567634931df3',
    'traces/vb-sdp-ae_0.5_0.5_10.csv':
        '422f8753099060880146ac82e8915645b4cdea7fc55f8df58faebddcd1a84934',
    'traces/vb-sdp-ae_0.5_0.5_11.csv':
        '422f8753099060880146ac82e8915645b4cdea7fc55f8df58faebddcd1a84934',
    'traces/vb-sdp-ae_0.5_0.5_2.csv':
        '422f8753099060880146ac82e8915645b4cdea7fc55f8df58faebddcd1a84934',
    'traces/vb-sdp-ae_0.5_0.5_3.csv':
        '422f8753099060880146ac82e8915645b4cdea7fc55f8df58faebddcd1a84934',
    'traces/vb-sdp-ae_0.5_0.5_4.csv':
        '422f8753099060880146ac82e8915645b4cdea7fc55f8df58faebddcd1a84934',
    'traces/vb-sdp-ae_0.5_0.5_5.csv':
        '69784b77078bb4df9d2713591010e81e0b179771a7d702dee50e567634931df3',
    'traces/vb-sdp-ae_0.5_0.5_6.csv':
        '422f8753099060880146ac82e8915645b4cdea7fc55f8df58faebddcd1a84934',
    'traces/vb-sdp-ae_0.5_0.5_7.csv':
        '69784b77078bb4df9d2713591010e81e0b179771a7d702dee50e567634931df3',
    'traces/vb-sdp-ae_0.5_0.5_8.csv':
        '422f8753099060880146ac82e8915645b4cdea7fc55f8df58faebddcd1a84934',
    'traces/vb-sdp-ae_0.5_0.5_9.csv':
        '422f8753099060880146ac82e8915645b4cdea7fc55f8df58faebddcd1a84934',
    'traces/vb-sdp-ae_1.0_0.5_0.csv':
        'bfb6bf97a419eade53275b9cffbe6f7b3c29d6f39b043fa9cb3f54f8b2e25d74',
    'traces/vb-sdp-ae_1.0_0.5_1.csv':
        'bfb6bf97a419eade53275b9cffbe6f7b3c29d6f39b043fa9cb3f54f8b2e25d74',
    'traces/vb-sdp-ae_1.0_0.5_10.csv':
        'aaca0005133c93096223b2a30de6d41f7c2ec69260682f88ff851e687bff2df9',
    'traces/vb-sdp-ae_1.0_0.5_11.csv':
        'bfb6bf97a419eade53275b9cffbe6f7b3c29d6f39b043fa9cb3f54f8b2e25d74',
    'traces/vb-sdp-ae_1.0_0.5_2.csv':
        'aaca0005133c93096223b2a30de6d41f7c2ec69260682f88ff851e687bff2df9',
    'traces/vb-sdp-ae_1.0_0.5_3.csv':
        'aaca0005133c93096223b2a30de6d41f7c2ec69260682f88ff851e687bff2df9',
    'traces/vb-sdp-ae_1.0_0.5_4.csv':
        'aaca0005133c93096223b2a30de6d41f7c2ec69260682f88ff851e687bff2df9',
    'traces/vb-sdp-ae_1.0_0.5_5.csv':
        'bfb6bf97a419eade53275b9cffbe6f7b3c29d6f39b043fa9cb3f54f8b2e25d74',
    'traces/vb-sdp-ae_1.0_0.5_6.csv':
        'aaca0005133c93096223b2a30de6d41f7c2ec69260682f88ff851e687bff2df9',
    'traces/vb-sdp-ae_1.0_0.5_7.csv':
        'aaca0005133c93096223b2a30de6d41f7c2ec69260682f88ff851e687bff2df9',
    'traces/vb-sdp-ae_1.0_0.5_8.csv':
        'bfb6bf97a419eade53275b9cffbe6f7b3c29d6f39b043fa9cb3f54f8b2e25d74',
    'traces/vb-sdp-ae_1.0_0.5_9.csv':
        'aaca0005133c93096223b2a30de6d41f7c2ec69260682f88ff851e687bff2df9',
}


def digests(root):
    """sha256 of every file below root, keyed by its relative path."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                key = os.path.relpath(path, root).replace(os.sep, "/")
                out[key] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.mark.parametrize("threads", [1, 2])
def test_checkpoint_run_bytes_are_pinned(tmp_path, threads):
    run_experiment(replace(CONFIG, output=str(tmp_path)), threads=threads)
    assert digests(tmp_path) == CHECKPOINT_RUN
