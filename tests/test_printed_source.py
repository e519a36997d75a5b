"""The float source that ``numeric.compile_functions`` executes, pinned by digest.

The trajectory pins of ``test_rk4_pins`` show that the printed code computes
the same bits; these show that it is the same text.  For each model both
programs are captured as they reach ``exec``: the RK4 step of the
right-hand sides, and the row program of the right-hand sides, the
conserved quantities and the observed outputs.  The models are the four
shipped ones, a generated linear chain in shuffled declaration order, and a
model whose right-hand sides repeat structurally equal subtrees.
"""

import builtins
import hashlib

import pytest

from odeobs import numeric
from odeobs.expr import Symbol

from test_rk4_pins import CASES

# case -> (sha256 of the RK4 loop source, sha256 of the row program source)
DIGESTS = {
    'chain32_perm1': ('dd28b55739e764e257274ac83686a8931b09eafd542afa679a9c00f954ab6475', '6b8020521e8af2cb5d7debd73558af9136fe33fc86b9849f883f003adbad9a41'),
    'lv': ('cb316f9e0afb3da1c99248184bb04afe1a5523e90de6457939ced1ad43137561', 'c12b7759afb048ce4106c1ee25e9e98215ebdd0938f8e964415d0fc6977f8431'),
    'mm': ('cbbb23723f48ae2f06378090b62239b0d6e589d27dd0089416dceb4fd96db133', '14b63f0117ca300d7d8b84f6d548230d6d5b0f988c5a047772a39212df907ab8'),
    'shared': ('2431316697378c0aaa61d2a71d918ac81f15beadc251c5cb6c2d91a50195a8a3', '294e456abd9e831c94056201112f5f8ddb8882e55d4ba09affea21767d966774'),
    'sir': ('5329ac665d65782aa13fc1e03e394b7b878befea234e993944843467e3ef64d5', '10a88264b6a253dfb833aa39313f5cec47a7652bf573a9ce3b4ec2d94c1a80df'),
    'toy': ('4d7d397d1d9565a08250da584ff234f656976f4623690de292bf6c52dec22f16', 'b45ea303a5783baeeaaf8f93bd3507e22f5199c493a6463b12a3472ecc4ab3c4'),
}


def _sources(monkeypatch, name):
    sources = []

    def recording_exec(source, namespace):
        sources.append(source)
        builtins.exec(source, namespace)

    monkeypatch.setattr(numeric, "exec", recording_exec, raising=False)
    sys, _, params, dt, _ = CASES[name]()
    params = {Symbol(k, "parameter"): float(v) for k, v in params.items()}
    exprs = list(sys.rhs) + [q.expr for q in sys.conserved]
    exprs += [out for obs in sys.observations for out in obs.outputs]
    numeric.compile_functions(sys.states, sys.rhs, params, dt)
    numeric.compile_functions(sys.states, exprs, params)
    return sources


@pytest.mark.parametrize("name", ["sir", "mm", "toy", "lv", "chain32_perm1", "shared"])
def test_printed_source_digests(monkeypatch, name):
    step, rows = _sources(monkeypatch, name)
    digests = tuple(hashlib.sha256(s.encode()).hexdigest() for s in (step, rows))
    assert digests == DIGESTS[name]
