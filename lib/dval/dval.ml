module Tt = Signal_types.Type_tree

type t =
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string
  | Rect of Geometry.Rect.t
  | Dtype of Tt.node
  | Etype of Tt.node
  | Irange of int * int
  | Frange of float * float

let float_eq a b =
  a = b
  || Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let equal a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Float x, Float y -> float_eq x y
  | Bool x, Bool y -> x = y
  | Str x, Str y -> String.equal x y
  | Rect x, Rect y -> Geometry.Rect.equal x y
  | Dtype x, Dtype y | Etype x, Etype y -> Tt.equal x y
  | Irange (a1, b1), Irange (a2, b2) -> a1 = a2 && b1 = b2
  | Frange (a1, b1), Frange (a2, b2) -> float_eq a1 a2 && float_eq b1 b2
  | ( ( Int _ | Float _ | Bool _ | Str _ | Rect _ | Dtype _ | Etype _ | Irange _
      | Frange _ ),
      _ ) ->
    false

let pp ppf = function
  | Int x -> Fmt.int ppf x
  | Float x -> Fmt.pf ppf "%g" x
  | Bool x -> Fmt.bool ppf x
  | Str x -> Fmt.pf ppf "%S" x
  | Rect r -> Geometry.Rect.pp ppf r
  | Dtype n -> Fmt.pf ppf "data:%a" Tt.pp n
  | Etype n -> Fmt.pf ppf "elec:%a" Tt.pp n
  | Irange (a, b) -> Fmt.pf ppf "[%d..%d]" a b
  | Frange (a, b) -> Fmt.pf ppf "[%g..%g]" a b

let to_string v = Fmt.str "%a" pp v

let int = function Int x -> Some x | _ -> None

let float = function Float x -> Some x | _ -> None

let number = function Int x -> Some (float_of_int x) | Float x -> Some x | _ -> None

let bool = function Bool x -> Some x | _ -> None

let str = function Str x -> Some x | _ -> None

let rect = function Rect r -> Some r | _ -> None

let dtype = function Dtype n -> Some n | _ -> None

let etype = function Etype n -> Some n | _ -> None

let type_node = function Dtype n | Etype n -> Some n | _ -> None

let add a b =
  match (a, b) with
  | Int x, Int y -> Some (Int (x + y))
  | (Int _ | Float _), (Int _ | Float _) -> (
    match (number a, number b) with
    | Some x, Some y -> Some (Float (x +. y))
    | _ -> None)
  | _ -> None

let sub a b =
  match (a, b) with
  | Int x, Int y -> Some (Int (x - y))
  | (Int _ | Float _), (Int _ | Float _) -> (
    match (number a, number b) with
    | Some x, Some y -> Some (Float (x -. y))
    | _ -> None)
  | _ -> None

let sum = function
  | [] -> None
  | v :: rest ->
    List.fold_left
      (fun acc w -> match acc with None -> None | Some a -> add a w)
      (Some v) rest

let max_ a b =
  match (a, b) with
  | Int x, Int y -> Some (Int (max x y))
  | (Int _ | Float _), (Int _ | Float _) -> (
    match (number a, number b) with
    | Some x, Some y -> Some (Float (Float.max x y))
    | _ -> None)
  | _ -> None

let min_ a b =
  match (a, b) with
  | Int x, Int y -> Some (Int (min x y))
  | (Int _ | Float _), (Int _ | Float _) -> (
    match (number a, number b) with
    | Some x, Some y -> Some (Float (Float.min x y))
    | _ -> None)
  | _ -> None

let fold_num op = function
  | [] -> None
  | v :: rest ->
    List.fold_left
      (fun acc w -> match acc with None -> None | Some a -> op a w)
      (Some v) rest

let maximum vs = fold_num max_ vs

let minimum vs = fold_num min_ vs

let scale k = function
  | Int x -> Some (Float (k *. float_of_int x))
  | Float x -> Some (Float (k *. x))
  | Bool _ | Str _ | Rect _ | Dtype _ | Etype _ | Irange _ | Frange _ -> None

let compare_num a b =
  match (number a, number b) with
  | Some x, Some y -> Some (Float.compare x y)
  | _ -> None

let le a b = match compare_num a b with Some c -> Some (c <= 0) | None -> None

let compatible a b =
  match (a, b) with
  | Dtype x, Dtype y | Etype x, Etype y -> Tt.is_compatible x y
  | _ -> equal a b

let least_abstract a b =
  match (a, b) with
  | Dtype x, Dtype y -> Option.map (fun n -> Dtype n) (Tt.least_abstract x y)
  | Etype x, Etype y -> Option.map (fun n -> Etype n) (Tt.least_abstract x y)
  | _ -> if equal a b then Some a else None

let is_less_abstract a b =
  match (a, b) with
  | Dtype x, Dtype y | Etype x, Etype y -> Tt.is_less_abstract x y
  | _ -> false

let in_range v range =
  match (v, range) with
  | Int x, Irange (lo, hi) -> Some (lo <= x && x <= hi)
  | (Int _ | Float _), Frange (lo, hi) -> (
    match number v with Some x -> Some (lo <= x && x <= hi) | None -> None)
  | _ -> None

let to_token = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%h" f
  | Bool b -> string_of_bool b
  | Str s -> "\"" ^ s ^ "\""
  | Irange (a, b) -> Printf.sprintf "%d..%d" a b
  | Frange (a, b) -> Printf.sprintf "%h..%h" a b
  | Dtype n -> "data:" ^ Tt.name n
  | Etype n -> "elec:" ^ Tt.name n
  | Rect r ->
    let ll = Geometry.Rect.ll r in
    Printf.sprintf "rect %d %d %d %d" ll.Geometry.Point.x ll.Geometry.Point.y
      (Geometry.Rect.width r) (Geometry.Rect.height r)

(* [LO..HI] split at the first "..": no float literal contains one, so
   fractional and hex bounds split correctly. *)
let range_of s =
  let n = String.length s in
  let rec find i =
    if i + 1 >= n then None
    else if s.[i] = '.' && s.[i + 1] = '.' then
      let lo = String.sub s 0 i and hi = String.sub s (i + 2) (n - i - 2) in
      match (int_of_string_opt lo, int_of_string_opt hi) with
      | Some a, Some b -> Some (Irange (a, b))
      | _ -> (
        match (float_of_string_opt lo, float_of_string_opt hi) with
        | Some a, Some b -> Some (Frange (a, b))
        | _ -> None)
    else find (i + 1)
  in
  find 0

let of_string s =
  let s = String.trim s in
  let n = String.length s in
  let after p =
    let k = String.length p in
    if n > k && String.sub s 0 k = p then Some (String.sub s k (n - k))
    else None
  in
  match int_of_string_opt s with
  | Some i -> Some (Int i)
  | None when n >= 2 && s.[0] = '"' && s.[n - 1] = '"' ->
    (* before anything else: a string's text may look like a number, a
       range or a type *)
    Some (Str (String.sub s 1 (n - 2)))
  | None -> (
    match (float_of_string_opt s, bool_of_string_opt s) with
    | Some f, _ -> Some (Float f)
    | None, Some b -> Some (Bool b)
    | None, None -> (
      match (after "data:", after "elec:", after "rect ") with
      | Some name, _, _ ->
        Option.map (fun n -> Dtype n)
          (Tt.find_opt Signal_types.Standard.data_hierarchy name)
      | None, Some name, _ ->
        Option.map (fun n -> Etype n)
          (Tt.find_opt Signal_types.Standard.electrical_hierarchy name)
      | None, None, Some rest -> (
        match
          String.split_on_char ' ' rest
          |> List.filter (fun x -> x <> "")
          |> List.map int_of_string_opt
        with
        | [ Some x; Some y; Some w; Some h ] when w >= 0 && h >= 0 ->
          let ll = Geometry.Point.make x y in
          Some (Rect (Geometry.Rect.make ll ~width:w ~height:h))
        | _ -> None)
      | None, None, None -> range_of s))

let equal_for_tests = equal
