//! Query → SPARQL rendering, the inverse of the Adaptor (the same
//! renderer `load_gen` uses), so requests travel as the SPARQL text a
//! client would send.

use halk_logic::Query;

/// Renders a computation tree into the SPARQL subset the Adaptor accepts.
///
/// The rendering follows the Adaptor's grammar backwards: projection
/// chains become triples through fresh intermediate variables, an
/// intersection's branches become conjunctive patterns on the same
/// variable, `Union` becomes `{…} UNION {…}`, a root `Difference` becomes
/// `MINUS` on the SELECT variable, and `Negation` (or a nested
/// `Difference`, which is the same set algebra) becomes
/// `FILTER NOT EXISTS`. Returns `None` for trees outside the subset
/// (e.g. a bare anchor).
pub fn query_to_sparql(q: &Query) -> Option<String> {
    let mut body = String::new();
    let mut next_var = 0usize;
    if let Query::Difference(parts) = q {
        // Only the SELECT variable supports MINUS; nested differences are
        // rendered as FILTER NOT EXISTS by `render` below.
        let (first, rest) = parts.split_first()?;
        render(first, "x", &mut body, &mut next_var)?;
        for part in rest {
            body.push_str("MINUS { ");
            render(part, "x", &mut body, &mut next_var)?;
            body.push_str("} ");
        }
    } else {
        render(q, "x", &mut body, &mut next_var)?;
    }
    Some(format!("SELECT ?x WHERE {{ {body}}}"))
}

/// Appends patterns binding `?var` to `out`. Fresh intermediate variables
/// come from `next_var`.
fn render(q: &Query, var: &str, out: &mut String, next_var: &mut usize) -> Option<()> {
    match q {
        Query::Anchor(_) => None, // a variable cannot be bound to a constant
        Query::Projection { rel, input } => {
            match input.as_ref() {
                Query::Anchor(e) => {
                    out.push_str(&format!("e:{} r:{} ?{var} . ", e.0, rel.0));
                }
                other => {
                    let v = format!("v{}", *next_var);
                    *next_var += 1;
                    render(other, &v, out, next_var)?;
                    out.push_str(&format!("?{v} r:{} ?{var} . ", rel.0));
                }
            }
            Some(())
        }
        Query::Intersection(children) => {
            for child in children {
                match child {
                    Query::Negation(inner) => {
                        out.push_str("FILTER NOT EXISTS { ");
                        render(inner, var, out, next_var)?;
                        out.push_str("} ");
                    }
                    other => render(other, var, out, next_var)?,
                }
            }
            Some(())
        }
        Query::Union(children) => {
            for (i, child) in children.iter().enumerate() {
                if i > 0 {
                    out.push_str("UNION ");
                }
                out.push_str("{ ");
                render(child, var, out, next_var)?;
                out.push_str("} ");
            }
            Some(())
        }
        Query::Negation(inner) => {
            out.push_str("FILTER NOT EXISTS { ");
            render(inner, var, out, next_var)?;
            out.push_str("} ");
            Some(())
        }
        Query::Difference(parts) => {
            // Nested difference: a \ b ≡ a ∩ ¬b over the entity universe.
            let (first, rest) = parts.split_first()?;
            render(first, var, out, next_var)?;
            for part in rest {
                out.push_str("FILTER NOT EXISTS { ");
                render(part, var, out, next_var)?;
                out.push_str("} ");
            }
            Some(())
        }
    }
}
