module publishing

go 1.23
