(** Printing formulas back in the Isabelle-subset surface syntax.

    The printer and {!Parser} are inverses on the supported fragment:
    [Parser.parse (to_string f)] is structurally equal to [f] (a property
    exercised by the test suite). *)

open Form

(* Precedence levels, higher binds tighter.  Kept in sync with Parser. *)
let prec_impl = 10      (* -->  <->      right    *)
let prec_or = 20
let prec_and = 30
let prec_not = 80 (* prefix ~ binds tighter than every infix operator *)
let prec_cmp = 50       (* = ~= : ~: < <= > >=    *)
let prec_add = 60       (* + - Un        left     *)
let prec_mul = 70       (* * div mod Int left     *)
let prec_app = 90
let prec_atom = 100

let binder_keyword = function
  | Forall -> "ALL"
  | Exists -> "EX"
  | Lambda -> "%"
  | Comprehension -> assert false (* printed with brace syntax *)

let infix_of_const = function
  | And -> Some ("&", prec_and)
  | Or -> Some ("|", prec_or)
  | Impl -> Some ("-->", prec_impl)
  | Iff -> Some ("<->", prec_impl)
  | Eq -> Some ("=", prec_cmp)
  | Lt -> Some ("<", prec_cmp)
  | Le -> Some ("<=", prec_cmp)
  | Gt -> Some (">", prec_cmp)
  | Ge -> Some (">=", prec_cmp)
  | Elem -> Some (":", prec_cmp)
  | Subseteq -> Some ("<=", prec_cmp)
  | Subset -> Some ("<", prec_cmp)
  | Plus -> Some ("+", prec_add)
  | Minus | Diff -> Some ("-", prec_add)
  | Union -> Some ("Un", prec_add)
  | Mult -> Some ("*", prec_mul)
  | Div -> Some ("div", prec_mul)
  | Mod -> Some ("mod", prec_mul)
  | Inter -> Some ("Int", prec_mul)
  | BoolLit _ | IntLit _ | Null | Not | Ite | Uminus | EmptySet | UnivSet
  | FiniteSet | Card | FieldRead | FieldWrite | ArrayRead | ArrayWrite
  | Rtrancl | Tree | Old ->
    None

let const_name = function
  | BoolLit true -> "True"
  | BoolLit false -> "False"
  | IntLit n -> string_of_int n
  | Null -> "null"
  | EmptySet -> "{}"
  | UnivSet -> "Univ"
  | Card -> "card"
  | FieldRead -> "fieldRead"
  | FieldWrite -> "fieldWrite"
  | ArrayRead -> "arrayRead"
  | ArrayWrite -> "arrayWrite"
  | Rtrancl -> "rtrancl_pt"
  | Tree -> "tree"
  | Old -> "old"
  | Not -> "Not"
  | And -> "op &"
  | Or -> "op |"
  | Impl -> "op -->"
  | Iff -> "op <->"
  | Ite -> "if"
  | Eq -> "op ="
  | Lt -> "op <"
  | Le -> "op <="
  | Gt -> "op >"
  | Ge -> "op >="
  | Plus -> "op +"
  | Minus -> "op -"
  | Uminus -> "op ~-"
  | Mult -> "op *"
  | Div -> "op div"
  | Mod -> "op mod"
  | Union -> "op Un"
  | Inter -> "op Int"
  | Diff -> "op -s"
  | Elem -> "op :"
  | Subseteq -> "op <=s"
  | Subset -> "op <s"
  | FiniteSet -> "set"

let rec pp_prec prec ppf f =
  match f with
  | TypedForm (g, _) -> pp_prec prec ppf g
  | Var x -> Format.pp_print_string ppf x
  | Const c -> Format.pp_print_string ppf (const_name c)
  | App (Const FieldRead, [ fld; obj ]) when is_simple_field fld ->
    (* x..f binds tightest *)
    Format.fprintf ppf "%a..%a" (pp_prec prec_atom) obj (pp_prec prec_atom) fld
  | App (Const ((And | Or) as c), args) when List.length args >= 2 ->
    let op = match c with And -> "&" | _ -> "|" in
    let p = match c with And -> prec_and | _ -> prec_or in
    paren (prec > p) ppf (fun ppf ->
        Format.pp_print_list
          ~pp_sep:(fun ppf () -> Format.fprintf ppf " %s@ " op)
          (pp_prec (p + 1)) ppf args)
  | App (Const c, [ a; b ]) when infix_of_const c <> None ->
    let op, p =
      match infix_of_const c with Some x -> x | None -> assert false
    in
    let left_p, right_p =
      (* --> and <-> are right associative; everything else left *)
      if p = prec_impl then (p + 1, p) else (p, p + 1)
    in
    paren (prec > p) ppf (fun ppf ->
        Format.fprintf ppf "%a %s@ %a" (pp_prec left_p) a op (pp_prec right_p) b)
  | App (Const Not, [ App (Const Eq, [ a; b ]) ]) ->
    paren (prec > prec_cmp) ppf (fun ppf ->
        Format.fprintf ppf "%a ~=@ %a" (pp_prec (prec_cmp + 1)) a
          (pp_prec (prec_cmp + 1)) b)
  | App (Const Not, [ App (Const Elem, [ a; b ]) ]) ->
    paren (prec > prec_cmp) ppf (fun ppf ->
        Format.fprintf ppf "%a ~:@ %a" (pp_prec (prec_cmp + 1)) a
          (pp_prec (prec_cmp + 1)) b)
  | App (Const Not, [ g ]) ->
    paren (prec > prec_not) ppf (fun ppf ->
        Format.fprintf ppf "~%a" (pp_prec (prec_not + 1)) g)
  | App (Const Uminus, [ g ]) ->
    paren (prec > prec_not) ppf (fun ppf ->
        Format.fprintf ppf "-%a" (pp_prec prec_atom) g)
  | App (Const Ite, [ c; a; b ]) ->
    paren (prec > 0) ppf (fun ppf ->
        Format.fprintf ppf "if %a then %a else %a" (pp_prec 1) c (pp_prec 1) a
          (pp_prec 1) b)
  | App (Const FiniteSet, elems) ->
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
         (pp_prec 0))
      elems
  | App (Const Tree, flds) ->
    paren (prec > prec_app) ppf (fun ppf ->
        Format.fprintf ppf "tree [%a]"
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
             (pp_prec 0))
          flds)
  | App (g, args) ->
    paren (prec > prec_app) ppf (fun ppf ->
        Format.fprintf ppf "%a" (pp_prec prec_app) g;
        List.iter
          (fun a -> Format.fprintf ppf "@ %a" (pp_prec (prec_app + 1)) a)
          args)
  | Binder (Comprehension, [ (x, _) ], body) ->
    Format.fprintf ppf "{%s.@ %a}" x (pp_prec 0) body
  | Binder (Comprehension, _, _) ->
    invalid_arg "Pprint: comprehension must bind exactly one variable"
  | Binder (b, vars, body) ->
    paren (prec > 0) ppf (fun ppf ->
        Format.fprintf ppf "%s %s.@ %a" (binder_keyword b)
          (String.concat " " (List.map fst vars))
          (pp_prec 0) body)

and is_simple_field f =
  match strip_types f with Var _ -> true | _ -> false

and paren cond ppf k =
  if cond then (
    Format.pp_print_string ppf "(";
    k ppf;
    Format.pp_print_string ppf ")")
  else k ppf

let pp ppf f = Format.fprintf ppf "@[<hov 2>%a@]" (pp_prec 0) f
let to_string f = Format.asprintf "%a" pp f

(* ------------------------------------------------------------------ *)
(* Canonical printing (verdict-cache keys)                             *)
(* ------------------------------------------------------------------ *)

(* The surface printer above is NOT injective: [Le]/[Subseteq] both render
   as "<=", [Lt]/[Subset] as "<", [Minus]/[Diff] as "-" (the parser
   re-disambiguates through type inference), and binder sorts are never
   printed.  A digest keyed on surface strings can therefore hand an
   integer obligation the cached verdict of a set obligation.  The
   canonical printer gives every constant its own tag, parenthesizes
   fully, and prints binder sorts — with type-unification variables
   rendered uniformly as "_", so two parses of the same text (whose fresh
   [Tvar] indices differ) still print identically. *)

let canonical_const_tag = function
  | BoolLit true -> "true"
  | BoolLit false -> "false"
  | IntLit n -> string_of_int n
  | Null -> "null"
  | Not -> "not"
  | And -> "and"
  | Or -> "or"
  | Impl -> "impl"
  | Iff -> "iff"
  | Ite -> "ite"
  | Eq -> "eq"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"
  | Plus -> "plus"
  | Minus -> "minus"
  | Uminus -> "uminus"
  | Mult -> "mult"
  | Div -> "div"
  | Mod -> "mod"
  | EmptySet -> "empty"
  | UnivSet -> "univ"
  | FiniteSet -> "finset"
  | Union -> "union"
  | Inter -> "inter"
  | Diff -> "setdiff"
  | Elem -> "elem"
  | Subseteq -> "subseteq"
  | Subset -> "subset"
  | Card -> "card"
  | FieldRead -> "fieldRead"
  | FieldWrite -> "fieldWrite"
  | ArrayRead -> "arrayRead"
  | ArrayWrite -> "arrayWrite"
  | Rtrancl -> "rtrancl"
  | Tree -> "tree"
  | Old -> "old"

let canonical_binder_tag = function
  | Forall -> "all"
  | Exists -> "ex"
  | Lambda -> "lam"
  | Comprehension -> "setof"

let rec canonical_sort buf (ty : Ftype.t) =
  match ty with
  | Ftype.Bool -> Buffer.add_string buf "bool"
  | Ftype.Int -> Buffer.add_string buf "int"
  | Ftype.Obj -> Buffer.add_string buf "obj"
  | Ftype.Set e ->
    Buffer.add_string buf "(set ";
    canonical_sort buf e;
    Buffer.add_char buf ')'
  | Ftype.Arrow (a, r) ->
    Buffer.add_string buf "(fn ";
    canonical_sort buf a;
    Buffer.add_char buf ' ';
    canonical_sort buf r;
    Buffer.add_char buf ')'
  | Ftype.Tuple ts ->
    Buffer.add_string buf "(tup";
    List.iter
      (fun t ->
        Buffer.add_char buf ' ';
        canonical_sort buf t)
      ts;
    Buffer.add_char buf ')'
  | Ftype.Tvar _ -> Buffer.add_char buf '_'

let rec canonical buf f =
  match f with
  | Var x -> Buffer.add_string buf x
  | Const c ->
    (* '#' keeps constant tags disjoint from variable names *)
    Buffer.add_char buf '#';
    Buffer.add_string buf (canonical_const_tag c)
  | App (g, args) ->
    Buffer.add_char buf '(';
    canonical buf g;
    List.iter
      (fun a ->
        Buffer.add_char buf ' ';
        canonical buf a)
      args;
    Buffer.add_char buf ')'
  | Binder (b, vars, body) ->
    Buffer.add_string buf "(#";
    Buffer.add_string buf (canonical_binder_tag b);
    Buffer.add_string buf " (";
    List.iteri
      (fun i (x, ty) ->
        if i > 0 then Buffer.add_char buf ' ';
        Buffer.add_char buf '(';
        Buffer.add_string buf x;
        Buffer.add_char buf ' ';
        canonical_sort buf ty;
        Buffer.add_char buf ')')
      vars;
    Buffer.add_string buf ") ";
    canonical buf body;
    Buffer.add_char buf ')'
  | TypedForm (g, ty) ->
    Buffer.add_string buf "(#:: ";
    canonical buf g;
    Buffer.add_char buf ' ';
    canonical_sort buf ty;
    Buffer.add_char buf ')'

(** Unambiguous printing for cache digests: injective on
    alpha-normalized formulas (distinct constants get distinct tags,
    applications are fully parenthesized, binder sorts are printed).
    Unlike {!to_string}, this output is not meant to be parsed back. *)
let to_canonical_string f =
  let buf = Buffer.create 256 in
  canonical buf f;
  Buffer.contents buf
