//! Hand-rolled `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the
//! in-tree serde shim. Parses the item's token stream directly (no syn),
//! supports plain structs (named, tuple, unit) and enums (unit, tuple and
//! struct variants), plus the `#[serde(default)]` and `#[serde(skip)]`
//! field attributes. Generic types are rejected with a compile error; the
//! workspace does not derive on any.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug, Clone)]
struct Field {
    name: String,
    skip: bool,
    default: bool,
}

#[derive(Debug, Clone)]
enum VariantKind {
    Unit,
    Tuple(usize),
    Struct(Vec<Field>),
}

#[derive(Debug, Clone)]
struct Variant {
    name: String,
    kind: VariantKind,
}

#[derive(Debug)]
enum Shape {
    NamedStruct {
        name: String,
        fields: Vec<Field>,
    },
    TupleStruct {
        name: String,
        arity: usize,
    },
    UnitStruct {
        name: String,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

/// Serde flags found in one attribute run: (skip, default).
fn scan_attrs(tokens: &[TokenTree], mut i: usize) -> (usize, bool, bool) {
    let mut skip = false;
    let mut default = false;
    while i + 1 < tokens.len() {
        let is_hash = matches!(&tokens[i], TokenTree::Punct(p) if p.as_char() == '#');
        if !is_hash {
            break;
        }
        if let TokenTree::Group(g) = &tokens[i + 1] {
            if g.delimiter() == Delimiter::Bracket {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                if let Some(TokenTree::Ident(id)) = inner.first() {
                    if id.to_string() == "serde" {
                        if let Some(TokenTree::Group(args)) = inner.get(1) {
                            for t in args.stream() {
                                if let TokenTree::Ident(flag) = t {
                                    match flag.to_string().as_str() {
                                        "skip" => skip = true,
                                        "default" => default = true,
                                        _ => {}
                                    }
                                }
                            }
                        }
                    }
                }
                i += 2;
                continue;
            }
        }
        break;
    }
    (i, skip, default)
}

/// Skips a `pub` / `pub(...)` visibility prefix.
fn skip_vis(tokens: &[TokenTree], mut i: usize) -> usize {
    if matches!(&tokens.get(i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        i += 1;
        if matches!(&tokens.get(i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            i += 1;
        }
    }
    i
}

/// Advances past a type expression up to a top-level `,` (angle-depth aware).
fn skip_type(tokens: &[TokenTree], mut i: usize) -> usize {
    let mut depth = 0i32;
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => break,
            _ => {}
        }
        i += 1;
    }
    i
}

fn parse_named_fields(group: TokenStream) -> Result<Vec<Field>, String> {
    let tokens: Vec<TokenTree> = group.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let (next, skip, default) = scan_attrs(&tokens, i);
        i = skip_vis(&tokens, next);
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            Some(other) => return Err(format!("expected field name, found {other}")),
            None => break,
        };
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            _ => return Err(format!("expected `:` after field `{name}`")),
        }
        i = skip_type(&tokens, i);
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
        fields.push(Field {
            name,
            skip,
            default,
        });
    }
    Ok(fields)
}

/// Counts top-level comma-separated entries of a tuple field list.
fn tuple_arity(group: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = group.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut arity = 1usize;
    let mut depth = 0i32;
    let mut trailing_comma = true;
    for t in &tokens {
        trailing_comma = false;
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                arity += 1;
                trailing_comma = true;
            }
            _ => {}
        }
    }
    if trailing_comma {
        arity -= 1;
    }
    arity
}

fn parse_variants(group: TokenStream) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = group.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let (next, _, _) = scan_attrs(&tokens, i);
        i = next;
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            Some(other) => return Err(format!("expected variant name, found {other}")),
            None => break,
        };
        i += 1;
        let kind = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantKind::Tuple(tuple_arity(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantKind::Struct(parse_named_fields(g.stream())?)
            }
            _ => VariantKind::Unit,
        };
        // Skip an optional `= discriminant`.
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
            while i < tokens.len()
                && !matches!(&tokens[i], TokenTree::Punct(p) if p.as_char() == ',')
            {
                i += 1;
            }
        }
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
        variants.push(Variant { name, kind });
    }
    Ok(variants)
}

fn parse_shape(input: TokenStream) -> Result<Shape, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0usize;
    loop {
        let (next, _, _) = scan_attrs(&tokens, i);
        i = skip_vis(&tokens, next);
        match tokens.get(i) {
            Some(TokenTree::Ident(id)) => {
                let kw = id.to_string();
                if kw == "struct" || kw == "enum" {
                    break;
                }
                i += 1; // e.g. `#` free-standing idents like `unsafe`? advance defensively
            }
            Some(_) => i += 1,
            None => return Err("no struct/enum found".into()),
        }
    }
    let is_enum = matches!(&tokens[i], TokenTree::Ident(id) if id.to_string() == "enum");
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => return Err("expected type name".into()),
    };
    i += 1;
    if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!("cannot derive for generic type `{name}`"));
    }
    match tokens.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            if is_enum {
                Ok(Shape::Enum {
                    name,
                    variants: parse_variants(g.stream())?,
                })
            } else {
                Ok(Shape::NamedStruct {
                    name,
                    fields: parse_named_fields(g.stream())?,
                })
            }
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis && !is_enum => {
            Ok(Shape::TupleStruct {
                name,
                arity: tuple_arity(g.stream()),
            })
        }
        Some(TokenTree::Punct(p)) if p.as_char() == ';' && !is_enum => {
            Ok(Shape::UnitStruct { name })
        }
        _ => Err(format!("unsupported item body for `{name}`")),
    }
}

/// `out.extend_from_slice(b"...");` for a static run of JSON text
/// (field names are ASCII identifiers, so `{:?}` escaping is exact).
fn extend_lit(text: &str) -> String {
    format!("out.extend_from_slice(b{text:?});\n")
}

/// The streaming JSON body for an object of named fields, reading each
/// live field through `access` (e.g. `&self.x` or a match binding).
fn json_obj_body(fields: &[&Field], access: impl Fn(&str) -> String) -> String {
    if fields.is_empty() {
        return extend_lit("{}");
    }
    let mut body = String::new();
    for (i, f) in fields.iter().enumerate() {
        let open = if i == 0 { '{' } else { ',' };
        body.push_str(&extend_lit(&format!("{open}\"{}\":", f.name)));
        body.push_str(&format!(
            "::serde::Serialize::write_json({}, out);\n",
            access(&f.name)
        ));
    }
    body.push_str("out.push(b'}');\n");
    body
}

/// The streaming binary body for an object of named fields.
fn binary_obj_body(fields: &[&Field], access: impl Fn(&str) -> String) -> String {
    let mut body = format!("::serde::binary::write_obj({}, out);\n", fields.len());
    for f in fields {
        body.push_str(&format!(
            "::serde::binary::write_key(\"{}\", out);\n::serde::Serialize::write_binary({}, out);\n",
            f.name,
            access(&f.name)
        ));
    }
    body
}

fn gen_serialize(shape: &Shape) -> String {
    match shape {
        Shape::NamedStruct { name, fields } => {
            let live: Vec<&Field> = fields.iter().filter(|f| !f.skip).collect();
            let json = json_obj_body(&live, |f| format!("&self.{f}"));
            let bin = binary_obj_body(&live, |f| format!("&self.{f}"));
            impl_serialize(name, &json, &bin)
        }
        Shape::TupleStruct { name, arity } => {
            let (json, bin);
            if *arity == 1 {
                json = "::serde::Serialize::write_json(&self.0, out);\n".to_string();
                bin = "::serde::Serialize::write_binary(&self.0, out);\n".to_string();
            } else {
                let mut j = String::from("out.push(b'[');\n");
                for i in 0..*arity {
                    if i > 0 {
                        j.push_str("out.push(b',');\n");
                    }
                    j.push_str(&format!(
                        "::serde::Serialize::write_json(&self.{i}, out);\n"
                    ));
                }
                j.push_str("out.push(b']');\n");
                json = j;
                let mut b = format!("::serde::binary::write_arr({arity}, out);\n");
                for i in 0..*arity {
                    b.push_str(&format!(
                        "::serde::Serialize::write_binary(&self.{i}, out);\n"
                    ));
                }
                bin = b;
            }
            impl_serialize(name, &json, &bin)
        }
        Shape::UnitStruct { name } => impl_serialize(
            name,
            &extend_lit("null"),
            "::serde::binary::write_null(out);\n",
        ),
        Shape::Enum { name, variants } => {
            let mut json_arms = String::new();
            let mut bin_arms = String::new();
            for v in variants {
                match &v.kind {
                    VariantKind::Unit => {
                        json_arms.push_str(&format!(
                            "{name}::{v} => {{\n{body}}}\n",
                            v = v.name,
                            body = extend_lit(&format!("\"{}\"", v.name))
                        ));
                        bin_arms.push_str(&format!(
                            "{name}::{v} => {{\n::serde::binary::write_str(\"{v}\", out);\n}}\n",
                            v = v.name
                        ));
                    }
                    VariantKind::Tuple(arity) => {
                        let binds: Vec<String> = (0..*arity).map(|i| format!("f{i}")).collect();
                        let pattern = format!("{name}::{}({})", v.name, binds.join(", "));
                        let mut j = extend_lit(&format!("{{\"{}\":", v.name));
                        let mut b = format!(
                            "::serde::binary::write_obj(1, out);\n::serde::binary::write_key(\"{}\", out);\n",
                            v.name
                        );
                        if *arity == 1 {
                            j.push_str("::serde::Serialize::write_json(f0, out);\n");
                            b.push_str("::serde::Serialize::write_binary(f0, out);\n");
                        } else {
                            j.push_str("out.push(b'[');\n");
                            for (i, bind) in binds.iter().enumerate() {
                                if i > 0 {
                                    j.push_str("out.push(b',');\n");
                                }
                                j.push_str(&format!(
                                    "::serde::Serialize::write_json({bind}, out);\n"
                                ));
                            }
                            j.push_str("out.push(b']');\n");
                            b.push_str(&format!("::serde::binary::write_arr({arity}, out);\n"));
                            for bind in &binds {
                                b.push_str(&format!(
                                    "::serde::Serialize::write_binary({bind}, out);\n"
                                ));
                            }
                        }
                        j.push_str("out.push(b'}');\n");
                        json_arms.push_str(&format!("{pattern} => {{\n{j}}}\n"));
                        bin_arms.push_str(&format!("{pattern} => {{\n{b}}}\n"));
                    }
                    VariantKind::Struct(fields) => {
                        let binds: Vec<String> = fields.iter().map(|f| f.name.clone()).collect();
                        let live: Vec<&Field> = fields.iter().filter(|f| !f.skip).collect();
                        let pattern = format!("{name}::{} {{ {} }}", v.name, binds.join(", "));
                        let mut j = extend_lit(&format!("{{\"{}\":", v.name));
                        j.push_str(&json_obj_body(&live, |f| f.to_string()));
                        j.push_str("out.push(b'}');\n");
                        let mut b = format!(
                            "::serde::binary::write_obj(1, out);\n::serde::binary::write_key(\"{}\", out);\n",
                            v.name
                        );
                        b.push_str(&binary_obj_body(&live, |f| f.to_string()));
                        json_arms.push_str(&format!("{pattern} => {{\n{j}}}\n"));
                        bin_arms.push_str(&format!("{pattern} => {{\n{b}}}\n"));
                    }
                }
            }
            impl_serialize(
                name,
                &format!("match self {{\n{json_arms}\n}}"),
                &format!("match self {{\n{bin_arms}\n}}"),
            )
        }
    }
}

fn impl_serialize(name: &str, json_body: &str, binary_body: &str) -> String {
    format!(
        "#[automatically_derived]\nimpl ::serde::Serialize for {name} {{\n  fn write_json(&self, out: &mut ::std::vec::Vec<u8>) {{\n{json_body}\n  }}\n  fn write_binary(&self, out: &mut ::std::vec::Vec<u8>) {{\n{binary_body}\n  }}\n}}\n"
    )
}

/// A block expression that streams an object of named fields into
/// `ctor { ... }` via `reader`, skipping unknown keys (the first
/// occurrence of a duplicate key wins).
fn named_read_expr(fields: &[Field], ty: &str, ctor: &str) -> String {
    let live: Vec<&Field> = fields.iter().filter(|f| !f.skip).collect();
    let mut s = String::from("{\n::serde::Reader::begin_object(reader)?;\n");
    for f in &live {
        s.push_str(&format!(
            "let mut __f_{} = ::std::option::Option::None;\n",
            f.name
        ));
    }
    s.push_str(
        "while let ::std::option::Option::Some(__key) = ::serde::Reader::object_key(reader)? {\n",
    );
    if live.is_empty() {
        s.push_str("let _ = __key;\n::serde::Reader::skip_value(reader)?;\n");
    } else {
        s.push_str("match &*__key {\n");
        for f in &live {
            s.push_str(&format!(
                "\"{0}\" if __f_{0}.is_none() => {{ __f_{0} = ::std::option::Option::Some(::serde::Deserialize::read_from(reader)?); }}\n",
                f.name
            ));
        }
        s.push_str("_ => { ::serde::Reader::skip_value(reader)?; }\n}\n");
    }
    s.push_str("}\n");
    s.push_str(&format!("{ctor} {{\n"));
    for f in fields {
        if f.skip {
            s.push_str(&format!(
                "{}: ::std::default::Default::default(),\n",
                f.name
            ));
        } else if f.default {
            s.push_str(&format!(
                "{0}: match __f_{0} {{ ::std::option::Option::Some(v) => v, ::std::option::Option::None => ::std::default::Default::default() }},\n",
                f.name
            ));
        } else {
            s.push_str(&format!(
                "{0}: match __f_{0} {{ ::std::option::Option::Some(v) => v, ::std::option::Option::None => return Err(::serde::DeError::missing(\"{0}\", \"{ty}\")) }},\n",
                f.name
            ));
        }
    }
    s.push_str("}\n}");
    s
}

/// A block expression that streams an exact-length array into
/// `ctor(...)` via `reader`.
fn tuple_read_expr(ctor: &str, arity: usize, ty: &str) -> String {
    let err = format!("return Err(::serde::DeError::expected(\"array of {arity}\", \"{ty}\"))");
    let mut s = String::from("{\n::serde::Reader::begin_array(reader)?;\n");
    s.push_str(&format!("let __tuple = {ctor}(\n"));
    for _ in 0..arity {
        s.push_str(&format!(
            "{{ if !::serde::Reader::array_next(reader)? {{ {err}; }} ::serde::Deserialize::read_from(reader)? }},\n"
        ));
    }
    s.push_str(");\n");
    s.push_str(&format!(
        "if ::serde::Reader::array_next(reader)? {{ {err}; }}\n__tuple\n}}"
    ));
    s
}

fn gen_deserialize(shape: &Shape) -> String {
    let (name, read) = match shape {
        Shape::NamedStruct { name, fields } => {
            (name, format!("Ok({})", named_read_expr(fields, name, name)))
        }
        Shape::TupleStruct { name, arity: 1 } => (
            name,
            format!("Ok({name}(::serde::Deserialize::read_from(reader)?))"),
        ),
        Shape::TupleStruct { name, arity } => {
            (name, format!("Ok({})", tuple_read_expr(name, *arity, name)))
        }
        Shape::UnitStruct { name } => (
            name,
            format!("::serde::Reader::skip_value(reader)?;\nOk({name})"),
        ),
        Shape::Enum { name, variants } => (name, enum_read_body(name, variants)),
    };
    format!(
        "#[automatically_derived]\nimpl ::serde::Deserialize for {name} {{\n  fn read_from<'de, __R: ::serde::Reader<'de>>(reader: &mut __R) -> ::std::result::Result<Self, ::serde::DeError> {{\n{read}\n  }}\n}}\n"
    )
}

/// The `read_from` body for an enum: a string is a unit variant, an
/// object's single entry is a tagged variant; arms are only emitted for
/// kinds the enum actually has.
fn enum_read_body(name: &str, variants: &[Variant]) -> String {
    let unit: Vec<&Variant> = variants
        .iter()
        .filter(|v| matches!(v.kind, VariantKind::Unit))
        .collect();
    let tagged: Vec<&Variant> = variants
        .iter()
        .filter(|v| !matches!(v.kind, VariantKind::Unit))
        .collect();
    let mut read = String::new();
    if !unit.is_empty() {
        read.push_str(
            "if ::serde::Reader::peek(reader)? == ::serde::Peek::Str {\nlet __tag = ::serde::Reader::read_str(reader)?;\nmatch &*__tag {\n",
        );
        for v in &unit {
            read.push_str(&format!("\"{0}\" => return Ok({name}::{0}),\n", v.name));
        }
        read.push_str("_ => {}\n}\n");
        read.push_str(&format!(
            "return Err(::serde::DeError::expected(\"variant\", \"{name}\"));\n}}\n"
        ));
    }
    if !tagged.is_empty() {
        read.push_str(
            "if ::serde::Reader::peek(reader)? == ::serde::Peek::Obj {\n::serde::Reader::begin_object(reader)?;\n",
        );
        read.push_str(&format!(
            "let ::std::option::Option::Some(__tag) = ::serde::Reader::object_key(reader)? else {{\nreturn Err(::serde::DeError::expected(\"variant\", \"{name}\"));\n}};\n"
        ));
        read.push_str("let __value = match &*__tag {\n");
        for v in &tagged {
            let expr = match &v.kind {
                VariantKind::Tuple(1) => format!(
                    "{name}::{}(::serde::Deserialize::read_from(reader)?)",
                    v.name
                ),
                VariantKind::Tuple(arity) => {
                    tuple_read_expr(&format!("{name}::{}", v.name), *arity, name)
                }
                VariantKind::Struct(fields) => {
                    named_read_expr(fields, name, &format!("{name}::{}", v.name))
                }
                VariantKind::Unit => unreachable!("unit variants filtered out"),
            };
            read.push_str(&format!("\"{}\" => {expr},\n", v.name));
        }
        read.push_str(&format!(
            "_ => return Err(::serde::DeError::expected(\"variant\", \"{name}\")),\n}};\n"
        ));
        read.push_str(&format!(
            "if ::serde::Reader::object_key(reader)?.is_some() {{\nreturn Err(::serde::DeError::expected(\"variant\", \"{name}\"));\n}}\nreturn Ok(__value);\n}}\n"
        ));
    }
    read.push_str(&format!(
        "Err(::serde::DeError::expected(\"variant\", \"{name}\"))"
    ));
    read
}

/// Derives `serde::Serialize` (shim data model).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    match parse_shape(input) {
        Ok(shape) => gen_serialize(&shape).parse().unwrap(),
        Err(e) => compile_error(&format!("derive(Serialize): {e}")),
    }
}

/// Derives `serde::Deserialize` (shim data model).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    match parse_shape(input) {
        Ok(shape) => gen_deserialize(&shape).parse().unwrap(),
        Err(e) => compile_error(&format!("derive(Deserialize): {e}")),
    }
}
