//! Crate-level behaviour and property tests.

use std::sync::OnceLock;

use crate::{ParamSpec, ParamType, RegistryError, ToolCall, ToolRegistry, ToolSpec};
use lim_json::Value;
use lim_llm::tokens::{agent_prompt_tokens, estimate_tokens, AGENT_SYSTEM_PROMPT};
use lim_workloads::churn::synthetic_tool;
use lim_workloads::{bfcl, geoengine, Workload};
use proptest::prelude::*;

/// The bfcl and geoengine catalogs, built once. They come through
/// `lim-workloads`, which links its own build of this crate, so the
/// registry under test is the one the pipeline uses.
fn catalogs() -> &'static [Workload; 2] {
    static CATALOGS: OnceLock<[Workload; 2]> = OnceLock::new();
    CATALOGS.get_or_init(|| [bfcl(1, 1), geoengine(1, 1)])
}

#[test]
fn full_catalog_rendering_is_valid_json() {
    let reg = ToolRegistry::from_specs([
        ToolSpec::builder("get_weather")
            .description("Weather lookup")
            .param(ParamSpec::required("city", ParamType::String, "City"))
            .build(),
        ToolSpec::builder("translate_text")
            .description("Translation")
            .param(ParamSpec::required("text", ParamType::String, "Input"))
            .param(ParamSpec::required(
                "target",
                ParamType::Enum(vec!["fr".into(), "de".into()]),
                "Language",
            ))
            .build(),
    ])
    .unwrap();
    let rendered = reg.render_all().to_string();
    let parsed = lim_json::parse(&rendered).unwrap();
    assert_eq!(parsed.as_array().map(|a| a.len()), Some(2));
}

#[test]
fn registry_error_is_std_error() {
    fn assert_err<E: std::error::Error>(_: &E) {}
    assert_err(&RegistryError::DuplicateTool("x".into()));
}

proptest! {
    /// Registering n uniquely-named tools always succeeds and preserves
    /// order; indices round-trip through names.
    #[test]
    fn registry_index_name_bijection(names in prop::collection::btree_set("[a-z]{1,10}", 1..20)) {
        let reg = ToolRegistry::from_specs(
            names.iter().map(|n| ToolSpec::builder(n.clone()).description("d").build()),
        ).unwrap();
        for (i, name) in names.iter().enumerate() {
            prop_assert_eq!(reg.index_of(name), Some(i));
            prop_assert_eq!(reg.get(i).map(|t| t.name().to_owned()), Some(name.clone()));
        }
    }

    /// prompt_chars is monotone in the subset: adding a tool never shrinks
    /// the rendered payload.
    #[test]
    fn prompt_chars_monotone(extra in 0usize..3) {
        let reg = ToolRegistry::from_specs((0..4).map(|i| {
            ToolSpec::builder(format!("tool_{i}"))
                .description("does something useful with input data")
                .param(ParamSpec::required("input", ParamType::String, "the input"))
                .build()
        })).unwrap();
        let base: Vec<usize> = vec![0];
        let mut bigger = base.clone();
        bigger.push(1 + extra);
        prop_assert!(reg.prompt_chars(&bigger) > reg.prompt_chars(&base));
    }

    /// prompt_chars is arithmetic over the lengths recorded at register,
    /// and must equal the rendered payload's length for any index list:
    /// empty, with duplicates, or reaching past the catalog, on either
    /// benchmark catalog and after live registrations with arbitrary
    /// description text. The token count built from lengths alone must
    /// equal the sum of the rendered strings' token estimates.
    #[test]
    fn prompt_chars_is_the_rendered_length(
        catalog in 0usize..2,
        indices in prop::collection::vec(0usize..64, 0..24),
        registered in 0usize..4,
        seed in any::<u64>(),
        description in "\\PC{0,40}",
        query in "\\PC{0,80}",
        steps in 0usize..4,
    ) {
        let mut registry = catalogs()[catalog].registry.clone();
        for n in 0..registered {
            let mut doc = synthetic_tool(seed, n);
            doc.description.clone_from(&description);
            registry.register(doc.to_spec()).expect("probe names are unique");
        }
        let rendered = registry.render_subset(&indices).to_string();
        let chars = registry.prompt_chars(&indices);
        prop_assert_eq!(chars, rendered.len());
        let history = "x".repeat(steps * 320);
        prop_assert_eq!(
            agent_prompt_tokens(query.len(), chars, history.len()),
            estimate_tokens(AGENT_SYSTEM_PROMPT)
                + estimate_tokens(&query)
                + estimate_tokens(&rendered)
                + estimate_tokens(&history)
        );
    }

    /// validate_call accepts exactly the calls constructed from the schema
    /// itself (with required params filled by type-correct values).
    #[test]
    fn self_constructed_calls_validate(param_count in 0usize..5) {
        let mut builder = ToolSpec::builder("t").description("test tool");
        for i in 0..param_count {
            builder = builder.param(ParamSpec::required(
                format!("p{i}"),
                ParamType::Integer,
                "a number",
            ));
        }
        let spec = builder.build();
        let args = Value::Object(
            (0..param_count)
                .map(|i| (format!("p{i}"), Value::from(i as i64)))
                .collect(),
        );
        let call = ToolCall::new("t", args);
        prop_assert!(spec.validate_call(&call).is_ok());
    }
}
