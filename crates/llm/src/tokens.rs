//! Token estimation and prompt assembly.
//!
//! The simulator needs honest prompt sizes: tool schemas are sized as
//! real compact JSON by `lim-tools`, and this module converts text, or
//! just its length, to token counts with the standard
//! ≈4-characters-per-token heuristic used for Llama-family BPE
//! vocabularies.

/// Average characters per token for Llama-style tokenizers.
pub const CHARS_PER_TOKEN: f64 = 4.0;

/// Estimates the token count of `text` (at least 1 for non-empty text).
///
/// # Examples
///
/// ```
/// use lim_llm::tokens::estimate_tokens;
/// assert_eq!(estimate_tokens(""), 0);
/// assert_eq!(estimate_tokens("abcd"), 1);
/// assert_eq!(estimate_tokens("abcdefgh"), 2);
/// ```
pub fn estimate_tokens(text: &str) -> u32 {
    tokens_for_chars(text.len())
}

/// Estimates the token count of a text `chars` bytes long — the one
/// length formula behind every estimate here, for callers that know a
/// prompt's size without building it.
///
/// # Examples
///
/// ```
/// use lim_llm::tokens::{estimate_tokens, tokens_for_chars};
/// assert_eq!(tokens_for_chars(0), 0);
/// assert_eq!(tokens_for_chars(9), estimate_tokens("abcdefghi"));
/// ```
pub fn tokens_for_chars(chars: usize) -> u32 {
    if chars == 0 {
        return 0;
    }
    ((chars as f64 / CHARS_PER_TOKEN).ceil() as u32).max(1)
}

/// The fixed agent system prompt (function-calling instructions including
/// the paper's fallback directive to "signal a failure by returning an
/// error message if the function-calling step fails after retrying").
pub const AGENT_SYSTEM_PROMPT: &str = "You are a function-calling assistant running on an \
edge device. Select the single most appropriate tool from the provided tool list and call it \
with arguments that satisfy its JSON schema exactly. If, after retrying, none of the provided \
tools can complete the request, return a JSON error object {\"error\": \"no_suitable_tool\"} \
instead of guessing.";

/// The recommender system prompt: no tools are attached; the model is asked
/// to describe the ideal tools it would need (§III-B).
pub const RECOMMENDER_SYSTEM_PROMPT: &str = "You are planning how to answer a user request. \
No tools are attached. Reason about which tools you would ideally need and return a JSON list \
of objects, each with a \"name\" and a detailed \"functionality\" description of one ideal \
tool. Do not attempt to answer the request itself.";

/// Token count of the agent prompt for one call step, from the byte
/// lengths of its parts alone: the query, the tools payload (sized by
/// `lim_tools::ToolRegistry::prompt_chars`, without rendering it) and the
/// accumulated results of earlier steps in a sequential chain.
pub fn agent_prompt_tokens(query: usize, tools_json: usize, history: usize) -> u32 {
    tokens_for_chars(AGENT_SYSTEM_PROMPT.len())
        + tokens_for_chars(query)
        + tokens_for_chars(tools_json)
        + tokens_for_chars(history)
}

/// Builds the recommender prompt token count (query only — no tools, which
/// is why the paper can claim the step adds negligible overhead).
pub fn recommender_prompt_tokens(query: &str) -> u32 {
    estimate_tokens(RECOMMENDER_SYSTEM_PROMPT) + estimate_tokens(query)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_text_is_zero_tokens() {
        assert_eq!(estimate_tokens(""), 0);
    }

    #[test]
    fn short_text_is_one_token() {
        assert_eq!(estimate_tokens("a"), 1);
        assert_eq!(estimate_tokens("abc"), 1);
    }

    #[test]
    fn tokens_scale_with_length() {
        let short = estimate_tokens(&"x".repeat(100));
        let long = estimate_tokens(&"x".repeat(1000));
        assert_eq!(short, 25);
        assert_eq!(long, 250);
    }

    #[test]
    fn agent_prompt_dominated_by_tools_payload() {
        let query = "what's the weather?".len();
        let small = agent_prompt_tokens(query, "[]".len(), 0);
        let big = agent_prompt_tokens(query, 16_000, 0);
        assert!(big > small + 3900);
    }

    #[test]
    fn recommender_prompt_is_small() {
        // The recommender never sees tool schemas; its prompt is a couple
        // hundred tokens at most for realistic queries.
        let t = recommender_prompt_tokens("Plot the fmow VQA captions in UK from Fall 2009");
        assert!(t < 200, "recommender prompt {t} tokens");
    }
}
