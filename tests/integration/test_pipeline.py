"""Integration tests spanning multiple subsystems."""

import numpy as np
import pytest

from repro.core import contract
from repro.datasets import make_case, t2_amplitudes, eri_tensor
from repro.memory import (
    HMSimulator,
    all_dram_placement,
    all_pmm_placement,
    dram,
    pmm,
    verify_table2,
)
from repro.memory.devices import HeterogeneousMemory
from repro.memory.policies import sparta_policy_characterized
from repro.parallel import ScalabilityModel, parallel_sparta
from repro.tensor import read_tns, write_tns


class TestFullPipeline:
    """File -> contraction -> placement -> simulation, end to end."""

    def test_io_to_simulation(self, tmp_path):
        case = make_case("uber", 2, scale=0.1, seed=0)
        # Round-trip the inputs through the FROSTT format first.
        x_path, y_path = tmp_path / "x.tns", tmp_path / "y.tns"
        write_tns(case.x, x_path)
        write_tns(case.y, y_path)
        x = read_tns(x_path, shape=case.x.shape)
        y = read_tns(y_path, shape=case.y.shape)
        assert x.allclose(case.x)

        res = contract(
            x, y, case.cx, case.cy,
            method="sparta", swap_larger_to_y=False,
        )
        assert verify_table2(res.profile) == []

        peak = max(res.profile.peak_bytes(), 1)
        hm = HeterogeneousMemory(
            dram=dram(max(peak // 2, 1)), pmm=pmm(peak * 10)
        )
        sim = HMSimulator(hm)
        policy = sparta_policy_characterized(
            res.profile, sim, hm.dram.capacity_bytes
        )
        t_sparta = sim.simulate(res.profile, policy).total_seconds
        t_optane = sim.simulate(
            res.profile, all_pmm_placement()
        ).total_seconds
        t_dram = sim.simulate(
            res.profile, all_dram_placement()
        ).total_seconds
        assert t_dram <= t_sparta < t_optane

    def test_chained_contraction(self):
        """SpTC output feeds a subsequent SpTC (the paper's motivation
        for output sorting: 'using Z as an input for any subsequent
        SpTC computations')."""
        case = make_case("nips", 2, scale=0.05, seed=1)
        z1 = contract(
            case.x, case.y, case.cx, case.cy, method="vectorized"
        ).tensor
        assert z1.is_sorted()
        # Contract Z with Y again over Z's trailing modes.
        n = 2
        cz = tuple(range(z1.order - n, z1.order))
        y2_dims = tuple(z1.shape[m] for m in cz) + (5,)
        from repro.tensor import random_tensor

        y2 = random_tensor(y2_dims, 200, seed=3)
        z2 = contract(z1, y2, cz, (0, 1), method="vectorized")
        ref = contract(
            z1, y2, cz, (0, 1), method="sparta", swap_larger_to_y=False
        )
        assert z2.tensor.allclose(ref.tensor)

    def test_quantum_workflow(self):
        """CCSD-style ladder contraction with cutoff, both engines."""
        t2 = t2_amplitudes(6, 10, decay=0.9, seed=11)
        v = eri_tensor(6, 10, decay=1.1, seed=12)
        res_sp = contract(t2, v, (2, 3), (0, 1), method="sparta")
        res_vec = contract(t2, v, (2, 3), (0, 1), method="vectorized")
        assert res_sp.tensor.allclose(res_vec.tensor)
        assert res_sp.tensor.shape == (6, 6, 10, 10)

    def test_parallel_plus_model(self):
        case = make_case("vast", 1, scale=0.08, seed=2)
        par = parallel_sparta(
            case.x, case.y, case.cx, case.cy, threads=3
        )
        serial = contract(
            case.x, case.y, case.cx, case.cy,
            method="sparta", swap_larger_to_y=False,
        )
        assert par.result.tensor.allclose(serial.tensor)
        pred = ScalabilityModel().predict(serial.profile, 12)
        assert 1.0 < pred.speedup <= 12.0

    def test_engines_consistent_on_every_registry_dataset(self):
        from repro.datasets import dataset_names

        for name in dataset_names():
            case = make_case(name, 1, scale=0.03, seed=7)
            a = contract(
                case.x, case.y, case.cx, case.cy, method="vectorized"
            )
            b = contract(
                case.x, case.y, case.cx, case.cy,
                method="sparta", swap_larger_to_y=False,
            )
            assert a.tensor.allclose(b.tensor), name
