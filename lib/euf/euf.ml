(** Congruence closure for the theory of equality with uninterpreted
    function symbols (EUF).

    This is the core of the Nelson-Oppen style prover the paper connects
    through its SMT-LIB interface: given equalities and disequalities over
    uninterpreted terms, decide satisfiability and report the equalities
    implied between chosen terms (for equality exchange with other
    theories). *)

type term = Sym of string * term list

let mk_const name = Sym (name, [])
let mk_app name args = Sym (name, args)

let rec pp_term ppf (Sym (f, args)) =
  if args = [] then Format.pp_print_string ppf f
  else
    Format.fprintf ppf "%s(%a)" f
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         pp_term)
      args

let term_to_string t = Format.asprintf "%a" pp_term t

(* ------------------------------------------------------------------ *)
(* State: hash-consed term ids + union-find + congruence table         *)
(* ------------------------------------------------------------------ *)

type node = {
  id : int;
  fname : string;
  args : int list; (* ids *)
  mutable parent : int; (* union-find parent *)
  mutable rank : int;
  mutable uses : int list; (* ids of terms having this id as an argument *)
}

type t = {
  mutable nodes : node array;
  mutable n_nodes : int;
  term_ids : (string * int list, int) Hashtbl.t; (* (fname, arg ids) -> node id: one node per term *)
  (* congruence signature: (fname, arg representatives) -> node id *)
  sigs : (string * int list, int) Hashtbl.t;
  mutable pending : (int * int) list; (* merges to process *)
}

let dummy_node =
  { id = -1; fname = ""; args = []; parent = -1; rank = 0; uses = [] }

let create () =
  {
    nodes = Array.make 0 dummy_node;
    n_nodes = 0;
    term_ids = Hashtbl.create 64;
    sigs = Hashtbl.create 64;
    pending = [];
  }

let node st i = st.nodes.(i)

let rec find st i =
  let n = node st i in
  if n.parent = i then i
  else begin
    let r = find st n.parent in
    n.parent <- r;
    r
  end

(* Intern a term, returning its node id.  New nodes are entered in the
   congruence table; a pre-existing congruent node triggers a merge. *)
let rec intern st (Sym (f, args) : term) : int =
  let arg_ids = List.map (intern st) args in
  match Hashtbl.find_opt st.term_ids (f, arg_ids) with
  | Some i -> i
  | None ->
    let id = st.n_nodes in
    if id >= Array.length st.nodes then begin
      let grown =
        Array.make (max 16 (2 * Array.length st.nodes)) dummy_node
      in
      Array.blit st.nodes 0 grown 0 st.n_nodes;
      st.nodes <- grown
    end;
    let n = { id; fname = f; args = arg_ids; parent = id; rank = 0; uses = [] } in
    st.nodes.(id) <- n;
    st.n_nodes <- id + 1;
    Hashtbl.add st.term_ids (f, arg_ids) id;
    List.iter
      (fun a ->
        let ra = node st (find st a) in
        ra.uses <- id :: ra.uses)
      arg_ids;
    let key = (f, List.map (find st) arg_ids) in
    (match Hashtbl.find_opt st.sigs key with
    | Some j -> st.pending <- (id, j) :: st.pending
    | None -> Hashtbl.add st.sigs key id);
    process_pending st;
    id

and union st i j =
  let ri = find st i and rj = find st j in
  if ri <> rj then begin
    let ni = node st ri and nj = node st rj in
    let small, big =
      if ni.rank < nj.rank then (ni, nj)
      else if nj.rank < ni.rank then (nj, ni)
      else begin
        nj.rank <- nj.rank + 1;
        (ni, nj)
      end
    in
    small.parent <- big.id;
    (* re-hash the congruence signatures of all users of the smaller class *)
    let users = small.uses in
    big.uses <- users @ big.uses;
    small.uses <- [];
    List.iter
      (fun u ->
        let nu = node st u in
        let key = (nu.fname, List.map (find st) nu.args) in
        match Hashtbl.find_opt st.sigs key with
        | Some v when find st v <> find st u ->
          st.pending <- (u, v) :: st.pending
        | Some _ -> ()
        | None -> Hashtbl.add st.sigs key u)
      users
  end

and process_pending st =
  match st.pending with
  | [] -> ()
  | (i, j) :: rest ->
    st.pending <- rest;
    union st i j;
    process_pending st

(** Assert an equality between two terms. *)
let merge st a b =
  let ia = intern st a and ib = intern st b in
  st.pending <- (ia, ib) :: st.pending;
  process_pending st

(** Are two terms currently equal under the congruence closure? *)
let equal_terms st a b =
  let ia = intern st a and ib = intern st b in
  find st ia = find st ib

(* ------------------------------------------------------------------ *)
(* Satisfiability                                                      *)
(* ------------------------------------------------------------------ *)

type verdict = Sat | Unsat

(** Decide a conjunction of equalities and disequalities. *)
let check ~(eqs : (term * term) list) ~(diseqs : (term * term) list) : verdict =
  let st = create () in
  List.iter (fun (a, b) -> merge st a b) eqs;
  if List.exists (fun (a, b) -> equal_terms st a b) diseqs then Unsat else Sat

(** Equalities between the given terms implied by [eqs] (used for
    Nelson-Oppen equality propagation). *)
let implied_equalities ~(eqs : (term * term) list) (shared : term list) :
    (term * term) list =
  let st = create () in
  List.iter (fun (a, b) -> merge st a b) eqs;
  let with_ids = List.map (fun t -> (t, find st (intern st t))) shared in
  let rec pairs = function
    | [] -> []
    | (t, r) :: rest ->
      List.filter_map
        (fun (u, r') -> if r = r' then Some (t, u) else None)
        rest
      @ pairs rest
  in
  pairs with_ids

(** Explanation-free incremental interface used by the SMT solver: assert
    equalities one at a time and query consistency with a disequality
    set. *)
let inconsistent st (diseqs : (term * term) list) =
  List.exists (fun (a, b) -> equal_terms st a b) diseqs
