type kind =
  | Input
  | Buf
  | Not
  | And
  | Nand
  | Or
  | Nor
  | Xor
  | Xnor

let all_logic = [ Buf; Not; And; Nand; Or; Nor; Xor; Xnor ]

let to_string = function
  | Input -> "INPUT"
  | Buf -> "BUF"
  | Not -> "NOT"
  | And -> "AND"
  | Nand -> "NAND"
  | Or -> "OR"
  | Nor -> "NOR"
  | Xor -> "XOR"
  | Xnor -> "XNOR"

let of_string s =
  match String.uppercase_ascii s with
  | "BUF" | "BUFF" -> Some Buf
  | "NOT" | "INV" -> Some Not
  | "AND" -> Some And
  | "NAND" -> Some Nand
  | "OR" -> Some Or
  | "NOR" -> Some Nor
  | "XOR" -> Some Xor
  | "XNOR" -> Some Xnor
  | _ -> None

let arity_ok kind n =
  match kind with
  | Input -> n = 0
  | Buf | Not -> n = 1
  | And | Nand | Or | Nor | Xor | Xnor -> n >= 1

let check kind inputs =
  let n = Array.length inputs in
  if not (arity_ok kind n) then
    invalid_arg
      (Printf.sprintf "Gate.eval: %s cannot take %d inputs" (to_string kind) n)

(* [eval]/[eval_word] trust the caller on arity: gates reached through a
   finalized {!Circuit.t} were validated once by [Builder.finalize], so the
   simulators do not pay for the check on every evaluation.  External
   callers with unvalidated fanin arrays use the [_checked] wrappers. *)
let eval kind inputs =
  match kind with
  | Input -> invalid_arg "Gate.eval: Input has no function"
  | Buf -> inputs.(0)
  | Not -> not inputs.(0)
  | And -> Array.for_all Fun.id inputs
  | Nand -> not (Array.for_all Fun.id inputs)
  | Or -> Array.exists Fun.id inputs
  | Nor -> not (Array.exists Fun.id inputs)
  | Xor -> Array.fold_left (fun acc b -> if b then not acc else acc) false inputs
  | Xnor -> Array.fold_left (fun acc b -> if b then not acc else acc) true inputs

let eval_checked kind inputs =
  check kind inputs;
  eval kind inputs

let eval_word kind inputs =
  let fold f init = Array.fold_left f init inputs in
  match kind with
  | Input -> invalid_arg "Gate.eval_word: Input has no function"
  | Buf -> inputs.(0)
  | Not -> Int64.lognot inputs.(0)
  | And -> fold Int64.logand (-1L)
  | Nand -> Int64.lognot (fold Int64.logand (-1L))
  | Or -> fold Int64.logor 0L
  | Nor -> Int64.lognot (fold Int64.logor 0L)
  | Xor -> fold Int64.logxor 0L
  | Xnor -> Int64.lognot (fold Int64.logxor 0L)

let controlling_value = function
  | And | Nand -> Some false
  | Or | Nor -> Some true
  | Input | Buf | Not | Xor | Xnor -> None

let controlled_response = function
  | And -> false
  | Nand -> true
  | Or -> true
  | Nor -> false
  | Input | Buf | Not | Xor | Xnor ->
      invalid_arg "Gate.controlled_response: gate has no controlling value"

let inversion = function
  | Not | Nand | Nor | Xnor -> true
  | Input | Buf | And | Or | Xor -> false

(* Dense integer opcodes for flat (CSR) circuit representations.  The
   numbering groups the two-input workhorses first so dispatch in compiled
   kernels can test the common cases before the fallback. *)

let op_and = 0
let op_nand = 1
let op_or = 2
let op_nor = 3
let op_xor = 4
let op_xnor = 5
let op_buf = 6
let op_not = 7
let op_input = 8

let opcode = function
  | And -> op_and
  | Nand -> op_nand
  | Or -> op_or
  | Nor -> op_nor
  | Xor -> op_xor
  | Xnor -> op_xnor
  | Buf -> op_buf
  | Not -> op_not
  | Input -> op_input

let kind_of_opcode op =
  if op = op_and then And
  else if op = op_nand then Nand
  else if op = op_or then Or
  else if op = op_nor then Nor
  else if op = op_xor then Xor
  else if op = op_xnor then Xnor
  else if op = op_buf then Buf
  else if op = op_not then Not
  else if op = op_input then Input
  else invalid_arg "Gate.kind_of_opcode"

let op_inverts op = op = op_nand || op = op_nor || op = op_xnor || op = op_not
