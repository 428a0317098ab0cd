//! Tool catalogs.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use lim_json::Value;

use crate::spec::ToolSpec;

/// Error returned by registry mutations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// A tool with the same name is already registered.
    DuplicateTool(String),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::DuplicateTool(name) => write!(f, "tool {name:?} already registered"),
        }
    }
}

impl Error for RegistryError {}

/// An ordered catalog of tools, addressable by index or name.
///
/// Indexes are stable (insertion order) and are the ids stored in the
/// vector indexes of the search levels, so `ToolRegistry` is the common
/// coordinate system of the whole pipeline.
///
/// # Examples
///
/// ```
/// use lim_tools::{ToolRegistry, ToolSpec};
///
/// # fn main() -> Result<(), lim_tools::RegistryError> {
/// let mut reg = ToolRegistry::new();
/// reg.register(ToolSpec::builder("a").description("first tool").build())?;
/// reg.register(ToolSpec::builder("b").description("second tool").build())?;
/// assert_eq!(reg.len(), 2);
/// assert_eq!(reg.index_of("b"), Some(1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct ToolRegistry {
    tools: Vec<ToolSpec>,
    by_name: HashMap<String, usize>,
    /// Compact rendered length of each tool's schema, parallel to
    /// `tools`; what [`ToolRegistry::prompt_chars`] sums.
    schema_chars: Vec<usize>,
}

impl ToolRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a registry from an iterator of specs.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::DuplicateTool`] on name collisions.
    pub fn from_specs<I: IntoIterator<Item = ToolSpec>>(specs: I) -> Result<Self, RegistryError> {
        let mut reg = Self::new();
        for spec in specs {
            reg.register(spec)?;
        }
        Ok(reg)
    }

    /// Registers a tool, returning its index.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::DuplicateTool`] if the name is taken.
    pub fn register(&mut self, spec: ToolSpec) -> Result<usize, RegistryError> {
        if self.by_name.contains_key(spec.name()) {
            return Err(RegistryError::DuplicateTool(spec.name().to_owned()));
        }
        let index = self.tools.len();
        self.by_name.insert(spec.name().to_owned(), index);
        self.schema_chars.push(spec.schema_json().to_string().len());
        self.tools.push(spec);
        Ok(index)
    }

    /// Number of registered tools.
    pub fn len(&self) -> usize {
        self.tools.len()
    }

    /// Returns `true` if no tools are registered.
    pub fn is_empty(&self) -> bool {
        self.tools.is_empty()
    }

    /// Looks a tool up by index.
    pub fn get(&self, index: usize) -> Option<&ToolSpec> {
        self.tools.get(index)
    }

    /// Looks a tool up by name.
    pub fn get_by_name(&self, name: &str) -> Option<&ToolSpec> {
        self.by_name.get(name).map(|i| &self.tools[*i])
    }

    /// Returns the index of `name`, if registered.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Iterates over tools in registration order.
    pub fn iter(&self) -> std::slice::Iter<'_, ToolSpec> {
        self.tools.iter()
    }

    /// All tool names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.tools.iter().map(ToolSpec::name).collect()
    }

    /// Distinct categories, in first-appearance order.
    pub fn categories(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for t in &self.tools {
            if !seen.contains(&t.category()) {
                seen.push(t.category());
            }
        }
        seen
    }

    /// Indices of all tools in `category`.
    pub fn indices_in_category(&self, category: &str) -> Vec<usize> {
        self.tools
            .iter()
            .enumerate()
            .filter(|(_, t)| t.category() == category)
            .map(|(i, _)| i)
            .collect()
    }

    /// Renders the JSON schema array for a subset of tools — exactly the
    /// payload appended to the agent prompt. Unknown indices are skipped.
    pub fn render_subset(&self, indices: &[usize]) -> Value {
        indices
            .iter()
            .filter_map(|i| self.get(*i))
            .map(|t| t.schema_json())
            .collect()
    }

    /// Renders the full catalog (Search Level 3 / default policy payload).
    pub fn render_all(&self) -> Value {
        self.render_subset(&(0..self.len()).collect::<Vec<_>>())
    }

    /// Size in characters of the rendered subset — the quantity that
    /// drives prompt length, and therefore latency and energy, in the
    /// device model.
    ///
    /// Computed by arithmetic, without rendering: the compact array is
    /// its members' schema lengths (recorded once at
    /// [`ToolRegistry::register`]), one comma between neighbours, and
    /// two brackets. Like [`ToolRegistry::render_subset`], unknown
    /// indices are skipped and duplicates counted, so an empty subset
    /// is `"[]"`, 2 characters. A property test pins this against
    /// `render_subset(indices).to_string().len()`.
    pub fn prompt_chars(&self, indices: &[usize]) -> usize {
        let (members, chars) = indices
            .iter()
            .filter_map(|i| self.schema_chars.get(*i))
            .fold((0usize, 0), |(n, sum), len| (n + 1, sum + len));
        chars + members.saturating_sub(1) + 2
    }
}

impl<'a> IntoIterator for &'a ToolRegistry {
    type Item = &'a ToolSpec;
    type IntoIter = std::slice::Iter<'a, ToolSpec>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::{ParamSpec, ParamType};

    fn sample() -> ToolRegistry {
        ToolRegistry::from_specs([
            ToolSpec::builder("alpha")
                .description("first")
                .category("math")
                .param(ParamSpec::required("x", ParamType::Number, "operand"))
                .build(),
            ToolSpec::builder("beta")
                .description("second")
                .category("text")
                .build(),
            ToolSpec::builder("gamma")
                .description("third")
                .category("math")
                .build(),
        ])
        .unwrap()
    }

    #[test]
    fn lookup_by_name_and_index_agree() {
        let reg = sample();
        assert_eq!(reg.index_of("gamma"), Some(2));
        assert_eq!(reg.get(2).map(ToolSpec::name), Some("gamma"));
        assert_eq!(reg.get_by_name("beta").map(ToolSpec::name), Some("beta"));
        assert_eq!(reg.index_of("missing"), None);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut reg = sample();
        let dup = ToolSpec::builder("alpha").description("again").build();
        assert_eq!(
            reg.register(dup).unwrap_err(),
            RegistryError::DuplicateTool("alpha".into())
        );
        assert_eq!(reg.len(), 3);
    }

    #[test]
    fn categories_in_first_appearance_order() {
        let reg = sample();
        assert_eq!(reg.categories(), vec!["math", "text"]);
        assert_eq!(reg.indices_in_category("math"), vec![0, 2]);
    }

    #[test]
    fn render_subset_skips_unknown_indices() {
        let reg = sample();
        let rendered = reg.render_subset(&[0, 99]);
        assert_eq!(rendered.as_array().map(|a| a.len()), Some(1));
    }

    #[test]
    fn prompt_chars_grows_with_subset() {
        let reg = sample();
        let one = reg.prompt_chars(&[0]);
        let all = reg.prompt_chars(&[0, 1, 2]);
        assert!(all > one, "all={all} one={one}");
        assert_eq!(reg.render_all().as_array().map(|a| a.len()), Some(3));
    }

    #[test]
    fn iteration_is_in_registration_order() {
        let reg = sample();
        let names: Vec<&str> = (&reg).into_iter().map(ToolSpec::name).collect();
        assert_eq!(names, vec!["alpha", "beta", "gamma"]);
    }
}
