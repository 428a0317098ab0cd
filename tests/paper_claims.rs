//! The paper's quantitative claims, checked end to end at moderate batch
//! size. These are the same invariants the benchmark harnesses print;
//! here they gate the test suite.

use lessismore::core::{
    evaluate, evaluate_parallel, normalize_against, plan_dfsdt, DfsdtConfig, Pipeline, Policy,
    SearchLevels,
};
use lessismore::device::DeviceProfile;
use lessismore::llm::{ModelProfile, Quant};
use lessismore::workloads::{bfcl, geoengine};

const N: usize = 120;
const SEED: u64 = 20_250_331;

fn llama() -> ModelProfile {
    ModelProfile::by_name("llama3.1-8b").expect("model exists")
}

#[test]
fn table1_quant_ordering_reproduces_on_the_full_pipeline() {
    // Table I: BFCL success collapses monotonically with quantization
    // aggressiveness; full precision is far ahead.
    let workload = bfcl(SEED, N);
    let levels = SearchLevels::build(&workload);
    let model = llama();
    let success = |quant| {
        evaluate(
            &Pipeline::new(&workload, &levels, &model, quant).with_seed(SEED),
            Policy::Default,
        )
        .success_rate
    };
    let f16 = success(Quant::F16);
    let q4_0 = success(Quant::Q4_0);
    let q4_km = success(Quant::Q4KM);
    let q8_0 = success(Quant::Q8_0);
    assert!(
        f16 > q8_0 && q8_0 > q4_0,
        "f16 {f16:.2} q8 {q8_0:.2} q4_0 {q4_0:.2}"
    );
    assert!(q4_km > q4_0);
    // Within ±8 points of the paper's absolute numbers.
    for (got, want) in [
        (f16, 0.6304),
        (q4_0, 0.2043),
        (q4_km, 0.3957),
        (q8_0, 0.4435),
    ] {
        assert!((got - want).abs() < 0.08, "got {got:.3}, paper {want:.3}");
    }
}

#[test]
fn table2_configuration_ladder_reproduces() {
    // Table II: fewer tools cut time a lot; a smaller context cuts both
    // time and power further.
    let workload = geoengine(SEED, N);
    let levels = SearchLevels::build(&workload);
    let model = llama();
    let pipeline = Pipeline::new(&workload, &levels, &model, Quant::Q4KM).with_seed(SEED);
    let all: Vec<usize> = (0..workload.registry.len()).collect();

    let mut totals = [(0.0f64, 0.0f64); 3];
    for query in &workload.queries {
        let reduced: Vec<usize> = query
            .steps
            .iter()
            .filter_map(|s| workload.registry.index_of(&s.tool))
            .chain(0..12)
            .collect::<std::collections::BTreeSet<usize>>()
            .into_iter()
            .collect();
        for (slot, offered, ctx) in [
            (0, &all, 16_384u32),
            (1, &reduced, 16_384),
            (2, &reduced, 8_192),
        ] {
            let r = pipeline.run_query_offered(query, offered, ctx);
            totals[slot].0 += r.cost.seconds;
            totals[slot].1 += r.cost.joules;
        }
    }
    let time = |i: usize| totals[i].0 / N as f64;
    let power = |i: usize| totals[i].1 / totals[i].0;
    assert!(time(1) < 0.8 * time(0), "{} vs {}", time(1), time(0));
    assert!(time(2) < time(1));
    assert!(power(2) < power(1));
    // Paper's max drops: −43% time, −19% power. Accept the same order.
    let time_drop = 1.0 - time(2) / time(0);
    let power_drop = 1.0 - power(2) / power(0);
    assert!(time_drop > 0.30, "time drop {time_drop:.2}");
    assert!(power_drop > 0.08, "power drop {power_drop:.2}");
}

#[test]
fn figure2_shape_for_all_six_models() {
    // For every model: LiM is never slower than default, never draws more
    // power, and for every model except Mistral improves success.
    let workload = bfcl(SEED, N);
    let levels = SearchLevels::build(&workload);
    for model in lessismore::llm::profiles::catalog() {
        let pipeline = Pipeline::new(&workload, &levels, &model, Quant::Q4KM).with_seed(SEED);
        // Sharded evaluation is bit-identical to sequential (see
        // lim_core::evaluate_parallel), so the sweep can use all cores.
        let default = evaluate_parallel(&pipeline, Policy::Default, 0);
        let lim = evaluate_parallel(&pipeline, Policy::less_is_more(3), 0);
        let (time, power) = normalize_against(&default, &lim);
        assert!(time < 0.75, "{}: norm time {time:.2}", model.name);
        assert!(power < 1.0, "{}: norm power {power:.2}", model.name);
        if model.name != "mistral-8b" {
            assert!(
                lim.success_rate > default.success_rate,
                "{}: {:.3} vs {:.3}",
                model.name,
                lim.success_rate,
                default.success_rate
            );
        } else {
            assert!(
                (lim.success_rate - default.success_rate).abs() < 0.1,
                "mistral should stay flat"
            );
        }
    }
}

#[test]
fn figure3_shape_for_the_four_kept_models() {
    let workload = geoengine(SEED, N);
    let levels = SearchLevels::build(&workload);
    for name in ["hermes2-pro-8b", "llama3.1-8b", "mistral-8b", "qwen2-7b"] {
        let model = ModelProfile::by_name(name).expect("model exists");
        // Average over the four Ollama quants, as the paper's per-model
        // summaries do — single-variant draws are too noisy to resolve
        // the small GeoEngine gains (llama: 53.2% → 56%).
        let mut d_succ = 0.0;
        let mut g_succ = 0.0;
        let mut l_succ = 0.0;
        let mut time_ratio = 0.0;
        for quant in Quant::OLLAMA {
            let pipeline = Pipeline::new(&workload, &levels, &model, quant).with_seed(SEED);
            let default = evaluate_parallel(&pipeline, Policy::Default, 0);
            let gorilla = evaluate_parallel(&pipeline, Policy::Gorilla { k: 3 }, 0);
            let lim = evaluate_parallel(&pipeline, Policy::less_is_more(3), 0);
            d_succ += default.success_rate / 4.0;
            g_succ += gorilla.success_rate / 4.0;
            l_succ += lim.success_rate / 4.0;
            time_ratio += normalize_against(&default, &lim).0 / 4.0;
        }
        assert!(
            l_succ >= d_succ - 0.03,
            "{name}: LiM {l_succ:.3} vs default {d_succ:.3}"
        );
        assert!(
            g_succ < l_succ,
            "{name}: gorilla must lose on sequential chains"
        );
        // GeoEngine time cuts are present but smaller than BFCL's.
        assert!(time_ratio < 1.05, "{name}: norm time {time_ratio:.2}");
    }
}

#[test]
fn figure3_exclusion_of_small_models_reproduces() {
    let workload = geoengine(SEED, N);
    let levels = SearchLevels::build(&workload);
    for name in ["phi3-8b", "qwen2-1.5b"] {
        let model = ModelProfile::by_name(name).expect("model exists");
        let pipeline = Pipeline::new(&workload, &levels, &model, Quant::Q4KM).with_seed(SEED);
        let default = evaluate(&pipeline, Policy::Default);
        assert!(
            default.success_rate < 0.2,
            "{name}: default geo success {:.3} should collapse to ≈10%",
            default.success_rate
        );
    }
}

#[test]
fn toolllm_gate_reproduces() {
    let workload = geoengine(SEED, 10);
    let small = DeviceProfile::new(
        "orin-32gb",
        32 * 1024 * 1024 * 1024,
        133.0e9,
        20.0e12,
        9.0,
        1.23e-12,
        60.0e-12,
        267.0e-12,
    );
    assert!(plan_dfsdt(
        &workload,
        &llama(),
        Quant::Q4KM,
        &small,
        &DfsdtConfig::default()
    )
    .is_err());
    let plan = plan_dfsdt(
        &workload,
        &llama(),
        Quant::Q4KM,
        &DeviceProfile::jetson_agx_orin(),
        &DfsdtConfig::default(),
    )
    .expect("fits on 64 GB");
    assert!(
        plan.seconds_per_query > 100.0,
        "DFSDT must be impractically slow"
    );
}

#[test]
fn levels_preference_matches_benchmark_structure() {
    let model = ModelProfile::by_name("hermes2-pro-8b").expect("model exists");
    let b = bfcl(SEED, N);
    let bl = SearchLevels::build(&b);
    let bfcl_lim = evaluate(
        &Pipeline::new(&b, &bl, &model, Quant::Q4KM).with_seed(SEED),
        Policy::less_is_more(3),
    );
    assert!(
        bfcl_lim.level1_share > 0.5,
        "BFCL L1 share {:.2}",
        bfcl_lim.level1_share
    );

    let g = geoengine(SEED, N);
    let gl = SearchLevels::build(&g);
    let geo_lim = evaluate(
        &Pipeline::new(&g, &gl, &model, Quant::Q4KM).with_seed(SEED),
        Policy::less_is_more(3),
    );
    assert!(
        geo_lim.level2_share > 0.5,
        "Geo L2 share {:.2}",
        geo_lim.level2_share
    );
}
