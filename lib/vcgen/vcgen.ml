(** Verification-condition generation by weakest preconditions.

    Each desugared method becomes one formula [wp(body, True)]; assertions
    inside the command contribute labeled conjuncts.  Havoc is handled by
    fresh renaming rather than universal quantification, so obligations
    stay quantifier-light (free variables of an obligation are implicitly
    universal).  Loops use the standard invariant cut:

    {v  wp(loop I c b, Q) = I  /\  [ I -> wp(prelude,
                                       (c -> wp(b, I)) /\ (~c -> Q)) ]'  v}

    where [(.)'] renames the loop-modified variables to fresh constants
    ("an arbitrary iteration").  Missing invariants default to [True]
    unless an inference engine (the symbolic shape analysis of [lib/shape])
    supplies one — and anything supplied is {e verified}, never trusted,
    exactly as Section 2.4 requires. *)

(* Dependency digests for incremental re-verification live in their own
   compilation unit; re-export it under the library's root module. *)
module Deps = Deps

open Logic

(* Labels ride along as applications of a reserved head variable, so no
   formula constructor is needed; {!strip_labels} removes them before
   provers see the formula. *)
let label_prefix = "$label$"

let mk_label (l : string) (f : Form.t) : Form.t =
  Form.App (Form.Var (label_prefix ^ l), [ f ])

let label_of (f : Form.t) : (string * Form.t) option =
  match f with
  | Form.App (Form.Var v, [ g ])
    when String.length v > String.length label_prefix
         && String.sub v 0 (String.length label_prefix) = label_prefix ->
    Some
      ( String.sub v (String.length label_prefix)
          (String.length v - String.length label_prefix),
        g )
  | _ -> None

let rec strip_labels (f : Form.t) : Form.t =
  Form.map_bottom_up
    (fun g -> match label_of g with Some (_, inner) -> strip_labels inner | None -> g)
    f

(* ------------------------------------------------------------------ *)
(* Weakest preconditions                                               *)
(* ------------------------------------------------------------------ *)

type options = {
  infer_invariant : Gcl.Cmd.loop -> Form.t option;
      (** called for loops without an annotation *)
}

let default_options = { infer_invariant = (fun _ -> None) }

let rec wp (opts : options) (c : Gcl.Cmd.command) (q : Form.t) : Form.t =
  match c with
  | Gcl.Cmd.Skip -> q
  | Gcl.Cmd.Assume f -> Form.mk_impl f q
  | Gcl.Cmd.Assert (f, lbl) -> Form.mk_and [ mk_label lbl f; q ]
  | Gcl.Cmd.Assign (x, e) -> Form.subst1 x e q
  | Gcl.Cmd.Havoc xs ->
    let ren = List.map (fun x -> (x, Form.Var (Form.fresh_name x))) xs in
    Form.subst_list ren q
  | Gcl.Cmd.Seq cs -> List.fold_right (fun c q -> wp opts c q) cs q
  | Gcl.Cmd.Choice (a, b) -> Form.mk_and [ wp opts a q; wp opts b q ]
  | Gcl.Cmd.Loop l ->
    let invariant =
      match l.Gcl.Cmd.loop_invariant with
      | Some i -> i
      | None -> (
        match opts.infer_invariant l with Some i -> i | None -> Form.mk_true)
    in
    (* label each invariant conjunct with its own text so that the driver
       can identify (and weaken) a failing inferred conjunct *)
    let labeled_conjuncts stage =
      Form.mk_and
        (List.map
           (fun c ->
             mk_label
               (Printf.sprintf "loop invariant %s :: %s" stage
                  (Pprint.to_string c))
               c)
           (Form.conjuncts invariant))
    in
    let body_check =
      Form.mk_impl invariant
        (wp opts l.Gcl.Cmd.loop_prelude
           (Form.mk_and
              [ Form.mk_impl l.Gcl.Cmd.loop_cond
                  (wp opts l.Gcl.Cmd.loop_body (labeled_conjuncts "preserved"));
                Form.mk_impl (Form.mk_not l.Gcl.Cmd.loop_cond) q;
              ]))
    in
    let modified =
      Form.Sset.elements
        (Form.Sset.union
           (Gcl.Cmd.modified_vars l.Gcl.Cmd.loop_prelude)
           (Gcl.Cmd.modified_vars l.Gcl.Cmd.loop_body))
    in
    let ren = List.map (fun x -> (x, Form.Var (Form.fresh_name x))) modified in
    let arbitrary_iteration = Form.subst_list ren body_check in
    Form.mk_and [ labeled_conjuncts "initially"; arbitrary_iteration ]

(** The full verification condition of a command. *)
let vc ?(opts = default_options) (c : Gcl.Cmd.command) : Form.t =
  wp opts c Form.mk_true

(* ------------------------------------------------------------------ *)
(* Goal decomposition                                                  *)
(* ------------------------------------------------------------------ *)

(** Split a VC into separate labeled sequents: conjunctions split,
    implications accumulate hypotheses — the "simple goal decomposition
    technique" of Section 3. *)
let split_vc ?(name = "vc") (f : Form.t) : Sequent.t list =
  let rec go (hyps : Form.t list) (label : string) (f : Form.t) acc =
    match label_of f with
    | Some (l, inner) -> go hyps l inner acc
    | None -> (
      match Form.strip_types f with
      | Form.App (Form.Const Form.And, fs) ->
        List.fold_left (fun acc g -> go hyps label g acc) acc fs
      | Form.App (Form.Const Form.Impl, [ a; b ]) ->
        go (hyps @ List.map strip_labels (Form.conjuncts a)) label b acc
      | g when Form.is_true g -> acc
      | g ->
        { Sequent.name = name ^ ": " ^ label;
          hyps;
          goal = strip_labels g }
        :: acc)
  in
  List.rev (go [] "goal" f [])

(** End-to-end: desugared method task to labeled obligations. *)
let method_obligations ?(opts = default_options)
    (task : Gcl.Desugar.method_task) : Sequent.t list =
  let name = task.Gcl.Desugar.task_name in
  let f =
    Trace.with_span ~cat:"vcgen"
      ~args:(fun () -> [ ("method", Trace.S name) ])
      "wp"
      (fun () -> vc ~opts task.Gcl.Desugar.task_command)
  in
  let obligations =
    Trace.with_span ~cat:"vcgen"
      ~args:(fun () -> [ ("method", Trace.S name) ])
      "split"
      (fun () -> split_vc ~name f)
  in
  Trace.add "vcgen.obligations" (List.length obligations);
  obligations
