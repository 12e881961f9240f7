(** The plain formula passes do not depend on physical sharing.  Every
    pass that matters for cache keys and verdicts ([Form.fv], [Form.size],
    [Form.alpha_normalize], canonical printing, [Sequent.digest],
    [Simplify.simplify], [Form.subst]) must give the same answer on a
    maximally shared copy of a formula (every structurally equal subtree
    one physical node) and on a rebuilt copy with no sharing at all; the
    passes with [==] shortcuts ([subst], [alpha_normalize]) are where that
    could break.  The same answers must come out of four domains at once.
    Formulas come from the fuzzer's typed generators, over all five prover
    fragments.

    The group keeps the name and case names it had when these properties
    compared a hash-consing kernel's memoized passes with the plain ones;
    the kernel is gone and the plain passes are the only ones, so each
    case now compares them across the two copies. *)

open Logic
module Formgen = Fuzz.Formgen

let pp_form f = Format.asprintf "%a" Pprint.pp f

let arb_form frag =
  QCheck.make ~print:pp_form (Formgen.gen_formula frag ~fuel:3)

let arb_sequent frag =
  QCheck.make
    ~print:(fun s -> Format.asprintf "%a" Sequent.pp s)
    (Formgen.gen_sequent frag ~size:3)

let count = 150

(* a structurally identical tree with no physical sharing with [f] *)
let rec rebuild (f : Form.t) : Form.t =
  match f with
  | Form.Var x -> Form.Var x
  | Form.Const c -> Form.Const c
  | Form.App (g, args) -> Form.App (rebuild g, List.map rebuild args)
  | Form.Binder (b, vars, body) -> Form.Binder (b, List.map (fun v -> v) vars, rebuild body)
  | Form.TypedForm (g, ty) -> Form.TypedForm (rebuild g, ty)

(* a structurally identical tree in which equal subtrees are one node *)
let share (f : Form.t) : Form.t =
  let seen : (Form.t, Form.t) Hashtbl.t = Hashtbl.create 64 in
  let intern g =
    match Hashtbl.find_opt seen g with
    | Some h -> h
    | None -> Hashtbl.add seen g g; g
  in
  let rec go f =
    intern
      (match f with
       | Form.Var _ | Form.Const _ -> f
       | Form.App (g, args) -> Form.App (go g, List.map go args)
       | Form.Binder (b, vars, body) -> Form.Binder (b, vars, go body)
       | Form.TypedForm (g, ty) -> Form.TypedForm (go g, ty))
  in
  go f

let share_sequent (s : Sequent.t) : Sequent.t =
  { s with Sequent.hyps = List.map share s.hyps; goal = share s.goal }

let rebuild_sequent (s : Sequent.t) : Sequent.t =
  { s with Sequent.hyps = List.map rebuild s.hyps; goal = rebuild s.goal }

let for_all_fragments mk = List.map mk Formgen.all_fragments

let prop_fv frag =
  QCheck.Test.make
    ~name:(Formgen.fragment_name frag ^ ": memoized free variables = plain")
    ~count (arb_form frag)
    (fun f ->
      Form.Sset.equal (Form.fv (share f)) (Form.fv f)
      && Form.Sset.equal (Form.fv (rebuild f)) (Form.fv f))

let prop_size frag =
  QCheck.Test.make
    ~name:(Formgen.fragment_name frag ^ ": memoized size = plain")
    ~count (arb_form frag)
    (fun f ->
      Form.size (share f) = Form.size f
      && Form.size (rebuild f) = Form.size f)

let prop_alpha frag =
  QCheck.Test.make
    ~name:(Formgen.fragment_name frag ^ ": memoized alpha-normalization = plain")
    ~count (arb_form frag)
    (fun f ->
      Form.alpha_normalize ~keep_types:true (share f)
      = Form.alpha_normalize ~keep_types:true (rebuild f)
      && Form.alpha_normalize (share f) = Form.alpha_normalize (rebuild f))

let prop_canonical frag =
  QCheck.Test.make
    ~name:(Formgen.fragment_name frag ^ ": memoized canonical printing = plain")
    ~count (arb_form frag)
    (fun f ->
      String.equal
        (Pprint.to_canonical_string (share f))
        (Pprint.to_canonical_string (rebuild f)))

let prop_digest frag =
  QCheck.Test.make
    ~name:(Formgen.fragment_name frag ^ ": memoized sequent digest = plain")
    ~count:60 (arb_sequent frag)
    (fun s ->
      String.equal
        (Sequent.digest (share_sequent s))
        (Sequent.digest (rebuild_sequent s)))

(* beta reduction mints fresh binder names, so two simplify runs agree
   only up to alpha-renaming — which is what [Form.equal] checks *)
let prop_simplify frag =
  QCheck.Test.make
    ~name:(Formgen.fragment_name frag ^ ": memoized simplify ~ plain (alpha)")
    ~count (arb_form frag)
    (fun f ->
      Form.equal (Simplify.simplify (share f)) (Simplify.simplify (rebuild f)))

let prop_subst frag =
  QCheck.Test.make
    ~name:(Formgen.fragment_name frag ^ ": pruning substitution = plain")
    ~count (arb_form frag)
    (fun f ->
      (* a var absent from [f] changes nothing, so [subst] must hand back
         [f] itself; renaming every free var must not depend on sharing *)
      let absent = Form.Smap.singleton "absent_from_f" (Form.Var "r") in
      let map =
        Form.Sset.fold
          (fun x m -> Form.Smap.add x (Form.Var ("r_" ^ x)) m)
          (Form.fv f) absent
      in
      let shared = share f in
      Form.subst absent shared == shared
      && Form.subst map shared = Form.subst map (rebuild f))

(* Four domains run the passes on rebuilt (unshared) copies of the same
   formulas; every domain must get the answers the main domain gets. *)
let stress_domains () =
  let forms =
    List.concat_map
      (fun frag ->
        List.init 25 (fun n ->
            Sequent.to_form
              (Formgen.sequent_of_seed frag ~seed:42 ~size:3 n)))
      Formgen.all_fragments
  in
  let passes f =
    ( Form.Sset.cardinal (Form.fv f),
      Form.size f,
      Pprint.to_canonical_string f,
      Sequent.digest (Sequent.of_form f) )
  in
  let work () = List.map (fun f -> passes (rebuild f)) forms in
  let domains = List.init 4 (fun _ -> Domain.spawn work) in
  let results = List.map Domain.join domains in
  let reference = List.map (fun f -> passes (share f)) forms in
  List.iter
    (fun r ->
      Alcotest.(check int) "one answer per formula" (List.length forms)
        (List.length r);
      List.iter2
        (fun (nfv, sz, canon, dg) (nfv', sz', canon', dg') ->
          Alcotest.(check int) "free-variable count" nfv' nfv;
          Alcotest.(check int) "size" sz' sz;
          Alcotest.(check string) "canonical printing" canon' canon;
          Alcotest.(check string) "digest" dg' dg)
        r reference)
    results

let props =
  List.concat
    [ for_all_fragments prop_fv;
      for_all_fragments prop_size;
      for_all_fragments prop_alpha;
      for_all_fragments prop_canonical;
      for_all_fragments prop_digest;
      for_all_fragments prop_simplify;
      for_all_fragments prop_subst ]

let suite =
  [ ( "hashcons",
      List.map QCheck_alcotest.to_alcotest props
      @ [ Alcotest.test_case "4-domain concurrent consing" `Quick
            stress_domains ] ) ]
