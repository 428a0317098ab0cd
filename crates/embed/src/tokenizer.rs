//! Lexical front-end: lowercasing, splitting, stopwords and light stemming.
//!
//! [`Terms`] is the one definition of a term. The IDF fit
//! ([`crate::IdfModel::add_document`]), the encoder ([`crate::Embedder`])
//! and the collectors [`tokenize`] and [`tokens_with_bigrams`] all read
//! a text through it, so they can never disagree on what a term is.

/// Returns `true` if `word` is an English stopword stripped before
/// embedding.
///
/// The list is intentionally small: tool descriptions are short, and
/// removing too much hurts bigram coverage.
pub fn is_stopword(word: &str) -> bool {
    matches!(
        word,
        "a" | "an"
            | "and"
            | "are"
            | "as"
            | "at"
            | "be"
            | "by"
            | "for"
            | "from"
            | "in"
            | "into"
            | "is"
            | "it"
            | "its"
            | "of"
            | "on"
            | "or"
            | "that"
            | "the"
            | "this"
            | "to"
            | "with"
            | "will"
            | "you"
            | "your"
            | "can"
            | "given"
            | "using"
            | "use"
            | "any"
            | "all"
    )
}

/// The light suffix stemmer's rule for `w`: how many leading bytes of `w`
/// the stem keeps, and whether a `y` follows them.
fn stem_rule(w: &str) -> (usize, bool) {
    let n = w.len();
    if n > 4 && w.ends_with("ies") {
        return (n - 3, true);
    }
    if n > 5 && w.ends_with("ing") {
        return (n - 3, false);
    }
    if n > 4 && w.ends_with("ed") {
        return (n - 2, false);
    }
    if n > 4
        && (w.ends_with("ches") || w.ends_with("shes") || w.ends_with("xes") || w.ends_with("zes"))
    {
        return (n - 2, false);
    }
    if n > 3 && w.ends_with("es") && !w.ends_with("ses") {
        return (n - 1, false);
    }
    if n > 3 && w.ends_with('s') && !w.ends_with("ss") {
        return (n - 1, false);
    }
    (n, false)
}

/// Applies a light suffix stemmer so morphological variants collide.
///
/// This is deliberately much cruder than Porter stemming — tool descriptions
/// only need "translate"/"translates"/"translated"/"translating" and simple
/// plurals to map together.
///
/// # Examples
///
/// ```
/// use lim_embed::tokenizer::stem;
/// assert_eq!(stem("translates"), "translate");
/// assert_eq!(stem("translating"), "translat");
/// assert_eq!(stem("translated"), "translat");
/// assert_eq!(stem("queries"), "query");
/// assert_eq!(stem("maps"), "map");
/// ```
pub fn stem(word: &str) -> String {
    let (keep, y) = stem_rule(word);
    let mut stemmed = word[..keep].to_owned();
    if y {
        stemmed.push('y');
    }
    stemmed
}

/// The term stream of a text, with buffers reused from text to text.
///
/// A text's terms are its words, split on every non-alphanumeric
/// character, lowercased, stripped of stopwords and stemmed (the
/// *unigrams*), followed by each adjacent pair of unigrams joined by a
/// space (the *bigrams*). Splitting on punctuation makes snake_case tool
/// names like `plot_vqa_captions` decompose into their content words;
/// bigrams let the embedder tell "convert currency" from "convert units"
/// even when unigram overlap is identical.
///
/// [`Terms::for_each`] hands every term out as a `&str` into the stream's
/// own buffers, which are reused from text to text. An ASCII word is
/// lowercased in place, without allocating; any other word goes through
/// [`str::to_lowercase`], which applies Unicode's context rules (a final
/// `Σ` lowers to `ς`).
///
/// # Examples
///
/// ```
/// use lim_embed::tokenizer::Terms;
///
/// let mut terms = Terms::new();
/// let mut seen = Vec::new();
/// terms.for_each("Converts the currencies", |t| seen.push(t.to_owned()));
/// assert_eq!(seen, ["convert", "currency", "convert currency"]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Terms {
    /// The current text's unigrams, back to back.
    words: String,
    /// The end offset of each unigram in `words`.
    ends: Vec<usize>,
    /// The bigram being handed out.
    pair: String,
}

impl Terms {
    /// An empty term stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Calls `f` with every term of `text`: all unigrams in text order,
    /// then all bigrams in text order.
    pub fn for_each(&mut self, text: &str, mut f: impl FnMut(&str)) {
        self.unigrams(text, &mut f);
        for i in 1..self.ends.len() {
            let start = if i == 1 { 0 } else { self.ends[i - 2] };
            self.pair.clear();
            self.pair.push_str(&self.words[start..self.ends[i - 1]]);
            self.pair.push(' ');
            self.pair
                .push_str(&self.words[self.ends[i - 1]..self.ends[i]]);
            f(&self.pair);
        }
    }

    /// Calls `f` with every unigram of `text`, in text order.
    pub fn unigrams(&mut self, text: &str, mut f: impl FnMut(&str)) {
        self.words.clear();
        self.ends.clear();
        for word in text.split(|c: char| !c.is_alphanumeric()) {
            if word.is_empty() {
                continue;
            }
            let start = self.words.len();
            if word.is_ascii() {
                self.words.push_str(word);
                self.words[start..].make_ascii_lowercase();
            } else {
                self.words.push_str(&word.to_lowercase());
            }
            let lowered = &self.words[start..];
            if is_stopword(lowered) {
                self.words.truncate(start);
                continue;
            }
            let (keep, y) = stem_rule(lowered);
            self.words.truncate(start + keep);
            if y {
                self.words.push('y');
            }
            if self.words.len() > start {
                self.ends.push(self.words.len());
                f(&self.words[start..]);
            }
        }
    }
}

/// Tokenizes `text` into lowercase, stopword-free, stemmed terms: the
/// unigrams of [`Terms`].
///
/// # Examples
///
/// ```
/// use lim_embed::tokenizer::tokenize;
/// let toks = tokenize("Plot the fmow VQA captions in UK from Fall 2009");
/// assert!(toks.contains(&"plot".to_string()));
/// assert!(toks.contains(&"caption".to_string()));
/// assert!(!toks.contains(&"the".to_string()));
/// ```
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    Terms::new().unigrams(text, |t| tokens.push(t.to_owned()));
    tokens
}

/// Every term of `text`, unigrams then adjacent-pair bigrams (`"a b"`),
/// as [`Terms::for_each`] hands them out.
pub fn tokens_with_bigrams(text: &str) -> Vec<String> {
    let mut terms = Vec::new();
    Terms::new().for_each(text, |t| terms.push(t.to_owned()));
    terms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_lowercases_and_splits_punct() {
        assert_eq!(tokenize("Hello, World!"), vec!["hello", "world"]);
    }

    #[test]
    fn tokenize_splits_snake_case() {
        let toks = tokenize("text_translation_tool");
        assert_eq!(toks, vec!["text", "translation", "tool"]);
    }

    #[test]
    fn tokenize_drops_stopwords() {
        assert_eq!(tokenize("the cat is on a mat"), vec!["cat", "mat"]);
        assert_eq!(tokenize("The Given USING"), Vec::<String>::new());
    }

    #[test]
    fn tokenize_keeps_numbers() {
        assert_eq!(tokenize("fall 2009"), vec!["fall", "2009"]);
    }

    #[test]
    fn tokenize_lowercases_unicode_words_whole() {
        // The final-sigma rule needs the whole word as context.
        assert_eq!(tokenize("ΟΔΟΣ Straße"), vec!["οδο\u{3c2}", "straße"]);
        // The Kelvin sign lowers to an ASCII `k`, so the stopword and
        // stemming rules see the lowered word.
        assert_eq!(tokenize("\u{212A}eys"), vec!["key"]);
    }

    #[test]
    fn stem_handles_short_words() {
        // Words at or below the length guards are untouched.
        assert_eq!(stem("is"), "is");
        assert_eq!(stem("gas"), "gas");
        assert_eq!(stem("pass"), "pass");
    }

    #[test]
    fn stem_merges_inflections() {
        assert_eq!(stem("fetches"), stem("fetch"));
        assert_eq!(stem("regions"), stem("region"));
    }

    #[test]
    fn bigrams_are_appended() {
        let all = tokens_with_bigrams("convert currency now");
        assert_eq!(
            all,
            [
                "convert",
                "currency",
                "now",
                "convert currency",
                "currency now"
            ]
        );
    }

    #[test]
    fn a_reused_stream_forgets_the_previous_text() {
        let mut terms = Terms::new();
        terms.for_each("alpha beta gamma", |_| {});
        let mut seen = Vec::new();
        terms.for_each("delta", |t| seen.push(t.to_owned()));
        assert_eq!(seen, ["delta"]);
    }

    #[test]
    fn empty_input_gives_empty_tokens() {
        assert!(tokenize("").is_empty());
        assert!(tokens_with_bigrams("  ,,, ").is_empty());
    }
}
